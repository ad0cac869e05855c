"""Domain decomposition, halo exchange, network models — and a real
parallel execution engine.

The paper uses "vanilla LAMMPS' MPI-based domain decomposition scheme"
(Sec. V-C) and evaluates up to 8 Xeon-Phi-augmented nodes (Fig. 9).
This package substitutes real MPI two ways: a *sequential-SPMD*
execution (every rank's computation runs in one process against its own
owned + ghost atom sets, messages are byte-accurate, and a
latency/bandwidth network model converts traffic into modelled
communication time), and :class:`ParallelEngine`, a persistent worker
pool (threads, or processes on this host or on others) that runs those
same ranks concurrently, exchanging only ghost positions and force
slabs, for real wall-clock speedup.

Numerical fidelity is testable: the distributed force computation must
reproduce the single-domain forces exactly, and the engine must
reproduce the sequential decomposition bitwise for any worker count
(see ``tests/test_decomposition.py`` and
``tests/test_parallel_engine.py``).
"""

from repro.parallel.comm import (
    CommRecord,
    NetworkModel,
    INFINIBAND_FDR,
    INTRA_NODE,
    PCIE_GEN2,
)
from repro.parallel.decomposition import DomainDecomposition, RankDomain
from repro.parallel.cluster import ClusterSpec, DistributedRun
from repro.parallel.engine import EngineError, EngineStep, ParallelEngine, WorkerCrash
from repro.parallel.executor import (
    EngineExecutor,
    ExecutorError,
    SerialExecutor,
    ThreadExecutor,
    WorkerFailure,
    make_executor,
)
from repro.parallel.transport import (
    CorruptFrameError,
    ProcessExecutor,
    TornFrameError,
    TransportError,
    run_worker,
)

__all__ = [
    "ClusterSpec",
    "CommRecord",
    "CorruptFrameError",
    "DistributedRun",
    "DomainDecomposition",
    "EngineError",
    "EngineExecutor",
    "EngineStep",
    "ExecutorError",
    "INFINIBAND_FDR",
    "INTRA_NODE",
    "NetworkModel",
    "PCIE_GEN2",
    "ParallelEngine",
    "ProcessExecutor",
    "RankDomain",
    "SerialExecutor",
    "ThreadExecutor",
    "TornFrameError",
    "TransportError",
    "WorkerCrash",
    "WorkerFailure",
    "make_executor",
    "run_worker",
]
