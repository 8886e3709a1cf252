"""Reference implementations and fixtures that only the test suite uses.

Production never runs this code; reprolint's RL009 keeps it out of
``src/``.  Tests import it as ``support.<module>`` — ``tests/`` is on
``sys.path`` because the root ``conftest.py`` lives there.

* :mod:`support.cube` — the row-at-a-time group-by and the two cube
  oracles the columnar kernels are held equal to;
* :mod:`support.algorithm1` — Algorithm 1 as the paper runs it (one
  cube per aggregate query, DUMMY rewrite, m-way outer join, μ per
  row), the oracle for the one-cube build;
* :mod:`support.expressions` — the row-wise predicate compiler, the
  reference for column-at-a-time filtering;
* :mod:`support.intervention` — Definitions 2.5/2.6 checked directly,
  the semijoin-reduction test and the definitional reduction;
* :mod:`support.program_p` — program P's naive schedules, the oracles
  for the semi-naive fixpoint and the closure repair;
* :mod:`support.causality` — the data causal graph G_D and the
  Proposition 3.10 bound;
* :mod:`support.topk` — the production self-join's dominated rows as a
  set, for comparing with the Section 4.3 definition;
* :mod:`support.additivity` — the empirical Def 4.2 slack, the ground
  truth behind the cube's additivity assumption;
* :mod:`support.fixtures` — the Examples 2.9/2.10 instance and reading
  back a database saved by ``repro generate``.
"""
