"""Repository tooling (not shipped with the ``repro`` package).

``tools.reprolint`` is the repo-wide static invariant analyzer; see
``docs/static_analysis.md``.
"""
