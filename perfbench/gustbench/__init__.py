"""The GUST benchmark: workloads over the library's public API.

Every workload runs the three end-to-end paths of the system, each for
its share of the measured seconds:

* **cold compile** — shuffled raw triplets to replay-ready
  ``CompiledSpmv`` handles through an empty memory cache and a fresh
  on-disk store, then the same set reloaded by fresh caches (the
  process-restart path);
* **warm solve** — time-stepped Jacobi solves through one shared cached
  ``GustPipeline``: new values each step, cache value refresh, replay;
* **open-loop serving** — one generator thread drives
  ``SpmvServer.submit`` on a schedule (a fixed low rate, then a fixed
  rate ladder) while a second thread re-registers one tenant with new
  values.

A workload picks which path is heavy (inputs and time share); the other
two run small so that every end-to-end and per-layer metric exists on
every workload.  Modules:

* :mod:`gustbench.inputs` — seeded matrices, operators and tenants;
* :mod:`gustbench.paths` — the three timed paths and their oracles;
* :mod:`gustbench.layers` — benchmark-side layer wrappers, tracing and
  self-time aggregation;
* :mod:`gustbench.roofline` — host copy bandwidth and computed bytes;
* :mod:`gustbench.workloads` — workload definitions, metric tables and
  :func:`~gustbench.workloads.run`.
"""
