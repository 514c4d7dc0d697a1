"""``repro.serve`` — multi-tenant SpMV serving over prepared plans.

The paper's deployment story (schedule once, replay thousands of times)
implies a serving system: many clients submitting SpMV requests against a
registry of scheduled matrices.  This package is that layer:

* :class:`MatrixRegistry` — named tenants, each preprocessed once through
  the two-tier schedule cache and pinned to a prepared
  :class:`~repro.core.plan.ExecutionPlan` plus a compiled
  :class:`~repro.core.spmm.StackedReplay` batch kernel;
* :class:`RequestBatcher` — per-tenant bounded queues coalescing
  concurrent requests into one stacked right-hand side (work-conserving
  admission: an idle worker takes up to ``max_batch`` queued requests at
  once, so batches form only while every worker is busy; reject above
  ``max_queue``);
* :class:`SpmvServer` — thread-pool workers draining the batcher,
  :class:`ServerStats` metrics (latency percentiles, batch-size histogram,
  schedule-cache hit rates);
* :class:`SpmvClient` — a synchronous in-process client.

Batched execution is **bit-identical** to per-request
:meth:`~repro.core.pipeline.GustPipeline.execute`: a batch of k requests
degenerates to an SpMM block whose every destination row accumulates
sequentially in plan slot order.  See ``benchmarks/
bench_serving_throughput.py`` for the throughput gate and the README's
"Serving SpMV at scale" section for the architecture sketch.
"""

from repro.serve.batcher import BatchPolicy, RequestBatcher, run_batch
from repro.serve.chaos import ChaosReport, run_chaos
from repro.serve.circuit import CircuitBoard, CircuitSnapshot
from repro.serve.client import SpmvClient
from repro.serve.metrics import ServerMetrics, ServerStats
from repro.serve.registry import MatrixRegistry, RegisteredMatrix
from repro.serve.server import SpmvServer

__all__ = [
    "BatchPolicy",
    "ChaosReport",
    "CircuitBoard",
    "CircuitSnapshot",
    "MatrixRegistry",
    "RegisteredMatrix",
    "RequestBatcher",
    "ServerMetrics",
    "ServerStats",
    "SpmvClient",
    "SpmvServer",
    "run_batch",
    "run_chaos",
]
