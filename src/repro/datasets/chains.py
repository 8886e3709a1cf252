"""Worst-case chain instances (Example 3.7 / Figure 5).

Schema: ``R1(a)``, ``R2(b)``, ``R3(c, a, b)`` with two back-and-forth
foreign keys ``R3.a ↔ R1.a`` and ``R3.b ↔ R2.b``.  The instance for
parameter p has

* ``R1 = {r_1 … r_p}``          (values a_1 … a_p),
* ``R2 = {t_0 … t_p}``          (values b_0 … b_p),
* ``R3 = {s_1a, s_1b, …, s_pa, s_pb}`` with
  ``s_ia = (c_ia, a_i, b_{i-1})`` and ``s_ib = (c_ib, a_i, b_i)``,

for a total of ``n = 4p + 1`` tuples.  For the explanation
``φ : [R3.c = c_1a]`` the deletion zig-zags down the chain one dotted
edge at a time (the paper's Figure 5 shows p = 2, n = 9), so program P
needs Θ(n) iterations — the tightness witness for Proposition 3.4.

The exact count under our (literal) reading of Rule (i) is
``n − 2 = 4p − 1``: the paper's narrative has t_0 arrive via Rule (iii)
in iteration 2, but Rule (i) as written,
``Δ_i¹ = R_i − Π_{A_i}(σ_¬φ U)``, already catches t_0 in iteration 1
(t_0 joins only the seed tuple s_1a, so it vanishes from the projected
residual universal table).  That merges the paper's first two
iterations; every later iteration matches the Example 3.7 narrative
one for one.

This is the tightness witness for Proposition 3.4 and the recursion
trigger of Section 3.3 (R3 carries *two* back-and-forth keys, so
Proposition 3.11 does not apply).
"""

from __future__ import annotations

from typing import Tuple

from ..engine.database import Database
from ..engine.schema import DatabaseSchema, foreign_key, make_schema
from ..errors import SchemaError
from ..core.predicates import AtomicPredicate, Explanation


def chain_schema() -> DatabaseSchema:
    """The three-relation schema with two back-and-forth keys."""
    return DatabaseSchema(
        (
            make_schema("R1", ["a"], ["a"]),
            make_schema("R2", ["b"], ["b"]),
            make_schema("R3", ["c", "a", "b"], ["c"]),
        ),
        (
            foreign_key("R3", "a", "R1", "a", back_and_forth=True),
            foreign_key("R3", "b", "R2", "b", back_and_forth=True),
        ),
    )


def example_37_database(p: int) -> Database:
    """The Figure 5 chain instance with parameter p (n = 4p + 1 tuples)."""
    if p < 1:
        raise SchemaError(f"chain parameter p must be >= 1, got {p}")
    r1 = [(f"a{i}",) for i in range(1, p + 1)]
    r2 = [(f"b{i}",) for i in range(0, p + 1)]
    r3 = []
    for i in range(1, p + 1):
        r3.append((f"c{i}a", f"a{i}", f"b{i - 1}"))
        r3.append((f"c{i}b", f"a{i}", f"b{i}"))
    return Database(chain_schema(), {"R1": r1, "R2": r2, "R3": r3})


def example_37_explanation() -> Explanation:
    """``φ : [R3.c = c1a]`` — deletes the whole chain, slowly."""
    return Explanation.of(AtomicPredicate("R3", "c", "=", "c1a"))


def example_37(p: int) -> Tuple[Database, Explanation]:
    """Database and explanation together, plus the expected iteration
    count ``4p`` available as :func:`expected_iterations`."""
    return example_37_database(p), example_37_explanation()


def expected_iterations(p: int) -> int:
    """Program P iteration count on the chain: ``n − 2 = 4p − 1``.

    See the module docstring for why this is one less than the paper's
    narrative count (Rule (i) already catches t_0).
    """
    return 4 * p - 1


def single_back_and_forth_chain(p: int) -> Tuple[Database, Explanation]:
    """A chain variant with only ONE back-and-forth key (R3.a ↔ R1.a).

    Used to exercise Proposition 3.11: with at most one back-and-forth
    key per relation, P converges in ≤ 2s + 2 = 4 steps regardless of
    p.
    """
    schema = DatabaseSchema(
        (
            make_schema("R1", ["a"], ["a"]),
            make_schema("R2", ["b"], ["b"]),
            make_schema("R3", ["c", "a", "b"], ["c"]),
        ),
        (
            foreign_key("R3", "a", "R1", "a", back_and_forth=True),
            foreign_key("R3", "b", "R2", "b", back_and_forth=False),
        ),
    )
    db = example_37_database(p)
    rebuilt = Database(
        schema,
        {
            "R1": db.relation("R1").rows(),
            "R2": db.relation("R2").rows(),
            "R3": db.relation("R3").rows(),
        },
    )
    return rebuilt, example_37_explanation()
