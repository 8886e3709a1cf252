"""``repro.datasets`` — seeded synthetic workload generators.

Each module reproduces one of the paper's data sources:

* :mod:`~repro.datasets.running_example` — the Figure 3 toy instance
  and the Example 2.9/2.10 counterexamples;
* :mod:`~repro.datasets.chains` — the Example 3.7 worst-case chains;
* :mod:`~repro.datasets.dblp` — a synthetic DBLP with the planted
  industrial-bump phenomenon (Figures 1–2);
* :mod:`~repro.datasets.geodblp` — the DBLP + Geo-DBLP integration
  with the UK SIGMOD/PODS anomaly (Figure 15);
* :mod:`~repro.datasets.natality` — a synthetic natality table whose
  conditional distributions are planted from the paper's published
  counts (Figures 7–11);
* :mod:`~repro.datasets.tpch` — a miniature TPC-H with the real
  (cyclic) eight-table foreign-key graph and planted regional/part
  phenomena: seven questions over 3–6-table joins, the workhorse of
  ``tests/differential`` and ``benchmarks/e2e``.

:mod:`~repro.datasets.catalog` is the one table of ready-to-ask
workloads over them: the CLI's datasets and the service registry's
built-ins.
"""

from . import chains, dblp, geodblp, natality, running_example, tpch

__all__ = ["chains", "dblp", "geodblp", "natality", "running_example", "tpch"]
