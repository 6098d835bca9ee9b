"""DAG proof-of-work chain with fork-penalizing rewards: library and simulator."""

from .chain import determine_parent, main_chain
from .ordering import order
from .rewards import BlockReward, RewardLedger, RewardParams, conflict_set, finalize, reward
from .sim import SimConfig, SimReport, Simulation, run, run_sweep
from .staleness import StaleSet, distance, is_stale, lca, stale_set
from .store import Block, BlockDag, BlockId, MinerId, block_id, load_dag

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockDag",
    "BlockId",
    "BlockReward",
    "MinerId",
    "RewardLedger",
    "RewardParams",
    "SimConfig",
    "SimReport",
    "Simulation",
    "StaleSet",
    "block_id",
    "conflict_set",
    "determine_parent",
    "distance",
    "finalize",
    "is_stale",
    "lca",
    "load_dag",
    "main_chain",
    "order",
    "reward",
    "run",
    "run_sweep",
    "stale_set",
]
