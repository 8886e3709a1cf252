"""Property-based tests for the TPC-H workload generator.

Three generator invariants that every downstream consumer (the bench
matrix, the differential suite, the golden rankings) silently relies
on:

* **Determinism** — the same ``(sf, seed)`` pair produces a database
  with an identical content fingerprint on every call.  Per-entity
  sub-RNGs (not one shared stream) make this hold even though the
  generator interleaves table construction.
* **Referential integrity** — every foreign key of the cyclic 8-table
  schema (including both composite legs of the partsupp diamond and
  the dual Customer/Supplier → Nation edges) resolves, at every scale
  factor.
* **Prefix stability** — row counts are monotone non-decreasing in the
  scale factor for a fixed seed: growing ``sf`` adds entities, it
  never reshuffles the ones already emitted.  This is what makes a
  sweep over the scale factor an *extension* sweep rather than several
  unrelated databases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import tpch

seeds = st.integers(min_value=0, max_value=2**16)


class TestTpchProperties:
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_same_sf_seed_is_fingerprint_identical(self, seed):
        first = tpch.generate(sf=0.01, seed=seed)
        second = tpch.generate(sf=0.01, seed=seed)
        assert (
            first.content_fingerprint() == second.content_fingerprint()
        )

    @given(seed=seeds, sf=st.sampled_from(tpch.SCALE_FACTORS))
    @settings(max_examples=10, deadline=None)
    def test_referential_integrity(self, seed, sf):
        db = tpch.generate(sf=sf, seed=seed)
        db.check_integrity()  # raises IntegrityError on any dangling FK

    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_row_counts_monotone_in_scale_factor(self, seed):
        counts = [
            {
                name: len(db.relation(name))
                for name in db.relation_names
            }
            for db in (
                tpch.generate(sf=sf, seed=seed)
                for sf in sorted(tpch.SCALE_FACTORS)
            )
        ]
        for smaller, larger in zip(counts, counts[1:]):
            for name, n in smaller.items():
                assert n <= larger[name], (
                    f"{name} shrank from {n} to {larger[name]} as sf grew"
                )
