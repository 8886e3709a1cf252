"""Algorithm 1: all explanation degrees via the data cube (Section 4.2).

Given an intervention-additive numerical query ``Q = E(q_1 … q_m)`` and
relevant attributes ``A'``:

1. compute ``u_j = q_j(D)`` on the original database;
2. for each ``q_j`` compute a data cube over ``σ_{w_j}(U)`` grouped by
   ``A'``, holding ``v_j(φ) = q_j(D_φ)`` per cube row φ;
3. rewrite cube NULLs to the DUMMY constant and full-outer-join the m
   cubes on ``A'`` (missing explanations get the aggregate's
   empty-input default, i.e. 0 for counts);
4. per row, ``μ_interv(φ) = sign_i × E(u_1 − v_1, …, u_m − v_m)`` and
   ``μ_aggr(φ) = sign_a × E(v_1, …, v_m)``.

The materialized result (the paper's table *M*) is wrapped in
:class:`ExplanationTable`, which the top-K strategies of
:mod:`repro.core.topk` consume.

The additivity precondition is checked by default
(:mod:`repro.core.additivity`); pass ``check_additivity=False`` to use
the cube as a fast approximation on non-additive queries, as Section 6
contemplates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..engine.cube import cube, dummy_rewrite
from ..engine.groupby import scalar_aggregate
from ..engine.joins import full_outer_join_many
from ..engine.table import Table
from ..engine.types import NULL, Value, is_dummy, is_null
from ..engine.universal import universal_table
from ..engine.database import Database
from ..errors import ExplanationError
from ..obs import phase
from .additivity import analyze_additivity
from .numquery import NumericalQuery
from .predicates import AtomicPredicate, Explanation
from .question import UserQuestion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.additivity import AdditivityCertificate

MU_INTERV = "mu_interv"
MU_AGGR = "mu_aggr"
MU_HYBRID = "mu_hybrid"


@dataclass(frozen=True)
class ExplanationTable:
    """The materialized table *M* of Algorithm 1.

    ``table`` columns: the relevant attributes (with DUMMY marking
    "don't care"), one ``v_<name>`` column per aggregate, then
    ``mu_interv`` and ``mu_aggr``.
    """

    table: Table
    attributes: Tuple[str, ...]
    aggregate_names: Tuple[str, ...]
    q_original: Dict[str, Value]
    #: Rankings derived from this table: :mod:`repro.core.topk`'s
    #: best-first orders and dominance flags, and the last
    #: :func:`add_hybrid_column` result.  Keyed by an immutable *M*, so
    #: nothing invalidates them: a refresh emits a new table with its own
    #: memo, and ``dataclasses.replace(m)`` starts empty.
    _memo: Dict[object, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def explanation_of(self, row: Sequence[Value]) -> Explanation:
        """The candidate explanation a table row denotes.

        The non-DUMMY attribute values are the equality conjuncts; the
        all-DUMMY row is the trivial explanation.
        """
        atoms: List[AtomicPredicate] = []
        for attr, pos in zip(self.attributes, self.table.positions(self.attributes)):
            value = tuple(row)[pos]
            if is_dummy(value) or is_null(value):
                continue
            rel, a = attr.split(".", 1)
            atoms.append(AtomicPredicate(rel, a, "=", value))
        return Explanation(tuple(atoms))

    def content_fingerprint(self) -> str:
        """A sha256 over the canonical content of the table *M*.

        Backend- and method-independent: the hash covers the ``repr``
        of the columns and the sorted multiset of canonical cell tuples,
        so no cell text can forge a separator.  NULL/DUMMY render as
        distinct sentinels, and integral floats collapse to their
        integer rendering (SQL backends hand back ``2.0`` where the
        engine keeps ``2``).  Two explanation tables fingerprint
        identically iff they have the same columns and the same
        canonical rows — the equality the differential test battery
        asserts across backends and methods.
        """
        rows = sorted(
            tuple(map(_canonical_cell, row)) for row in self.table.rows()
        )
        payload = repr((tuple(self.table.columns), rows))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.table)


def _canonical_cell(value: Value) -> str:
    """One cell of :meth:`ExplanationTable.content_fingerprint`."""
    if is_dummy(value):
        return "\x00D"
    if is_null(value):
        return "\x00N"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, float):
        if value != value:  # NaN
            return "f:nan"
        if value in (float("inf"), float("-inf")):
            return f"f:{value}"
        if value.is_integer():
            return f"i:{int(value)}"
        return f"f:{value!r}"
    if isinstance(value, int):
        return f"i:{value}"
    return f"s:{value}"


def build_explanation_table(
    database: Database,
    question: UserQuestion,
    attributes: Sequence[str],
    *,
    universal: Optional[Table] = None,
    check_additivity: bool = True,
    support_threshold: Optional[float] = None,
    use_fastpath: bool = True,
    backend: object = "memory",
    certificate: Optional["AdditivityCertificate"] = None,
) -> ExplanationTable:
    """Run Algorithm 1 and return the materialized table *M*.

    ``attributes`` are qualified universal columns (the relevant set
    A').  ``support_threshold`` drops explanations where *no* aggregate
    reaches the threshold (Section 5.1.1 uses 1000).  The cube is the
    columnar one, numpy-vectorized via ``use_fastpath`` where supported.

    ``certificate`` is a data-resolved
    :class:`~repro.analysis.additivity.AdditivityCertificate` for this
    (database, query): when supplied, the additivity precondition is
    read off the certificate instead of being re-probed against the
    universal table (the per-request probe the serving path avoids).
    An unresolved (static-only) certificate is not trusted — its
    conservative verdicts would reject additive-in-data plans — so it
    is re-derived against the instance.

    ``backend`` selects the execution substrate: ``"memory"`` (this
    module's native path), ``"sqlite"`` / ``"duckdb"`` (push the whole
    algorithm into a real DBMS — see :mod:`repro.backends`), or any
    :class:`~repro.backends.ExecutionBackend` instance.
    ``use_fastpath`` only applies to the in-memory path.
    """
    if backend != "memory":
        from ..backends import MemoryBackend, get_backend

        impl = get_backend(backend)
        if not isinstance(impl, MemoryBackend):
            return impl.build_explanation_table(
                database,
                question,
                attributes,
                universal=universal,
                check_additivity=check_additivity,
                support_threshold=support_threshold,
                certificate=certificate,
            )
    query = question.query
    u = universal if universal is not None else universal_table(database)
    for attr in attributes:
        u.position(attr)  # raise early on unknown columns
    if check_additivity:
        with phase("additivity_check"):
            if certificate is None or not certificate.data_resolved:
                certificate = analyze_additivity(database, query, universal=u)
            certificate.raise_if_not_additive()

    # Steps 1-2: one selection σ_{w_j}(U) per aggregate query feeds
    # both u_j = q_j(D) and the cube of v_j(φ).
    from ..engine import fastpath

    q_original: Dict[str, Value] = {}
    cubes: List[Table] = []
    for q in query.aggregates:
        with phase("cube_aggregate", aggregate=q.name) as cube_ph:
            source = q.filtered(u)
            q_original[q.name] = scalar_aggregate(source, q.aggregate)
            spec = type(q.aggregate)(
                q.aggregate.kind, q.aggregate.argument, f"v_{q.name}"
            )
            if use_fastpath and fastpath.supports((spec,)):
                c = fastpath.cube_numpy(source, attributes, (spec,))
            else:
                c = cube(source, attributes, (spec,))
            cube_ph.annotate(rows_in=len(source))
            c = dummy_rewrite(c, attributes)
            cube_ph.annotate(groups=len(c))
            cubes.append(c)

    # Step 3: combine the m cubes on the explanation columns.
    joined = full_outer_join_many(cubes, attributes, fill=NULL)

    # Steps 3b/4: fill defaults, μ columns, support filter.
    with phase("finalize", rows=len(joined)):
        return finalize_explanation_table(
            joined,
            question,
            attributes,
            q_original,
            support_threshold=support_threshold,
        )


def finalize_explanation_table(
    joined: Table,
    question: UserQuestion,
    attributes: Sequence[str],
    q_original: Dict[str, Value],
    *,
    support_threshold: Optional[float] = None,
) -> ExplanationTable:
    """Steps 3b–4 of Algorithm 1: defaults, μ columns, support filter.

    *joined* is the m-way combination of the per-aggregate cubes: the
    explanation attributes (DUMMY marking "don't care") plus one
    ``v_<name>`` column per aggregate, with NULL where an explanation
    was missing from a cube.  Shared by the in-memory path above and
    the SQL execution backends (:mod:`repro.backends`), which marshal
    their in-database join result into *joined* and delegate here so
    the degree arithmetic — including the ±∞ division conventions of
    the engine expression evaluator — is identical across backends.
    """
    query = question.query
    value_columns = [f"v_{q.name}" for q in query.aggregates]
    joined = _fill_missing_values(joined, query, value_columns)

    # Step 4: μ columns, computed from the v_j column slices — the
    # attribute columns pass through untouched (zero copy).
    n = len(joined)
    names = [q.name for q in query.aggregates]
    value_cols = [joined.column(c) for c in value_columns]
    interv_sign = question.intervention_sign
    aggr_sign = question.aggravation_sign
    mu_interv_col: List[Value] = []
    mu_aggr_col: List[Value] = []
    value_tuples = zip(*value_cols) if value_cols else (() for _ in range(n))
    for vals in value_tuples:
        values = dict(zip(names, vals))
        interv_env = {
            name: _subtract(q_original[name], values[name])
            for name in values
        }
        mu_i = query.evaluate_environment(interv_env)
        if not is_null(mu_i):
            mu_i = interv_sign * mu_i
        mu_a = query.evaluate_environment(values)
        if not is_null(mu_a):
            mu_a = aggr_sign * mu_a
        mu_interv_col.append(mu_i)
        mu_aggr_col.append(mu_a)
    m = Table.from_columns(
        list(joined.columns) + [MU_INTERV, MU_AGGR],
        joined.column_arrays() + [mu_interv_col, mu_aggr_col],
        nrows=n,
    )

    if support_threshold is not None:
        support_cols = [m.column(c) for c in value_columns]
        keep = [
            i
            for i in range(len(m))
            if any(
                not is_null(col[i]) and col[i] >= support_threshold
                for col in support_cols
            )
        ]
        m = m.take(keep)

    return ExplanationTable(
        table=m,
        attributes=tuple(attributes),
        aggregate_names=tuple(query.names),
        q_original=q_original,
    )


def _subtract(original: Value, restricted: Value) -> Value:
    if is_null(original) or is_null(restricted):
        return NULL
    return original - restricted


def add_hybrid_column(
    m: ExplanationTable, weight: float = 0.5
) -> ExplanationTable:
    """Append a ``mu_hybrid`` column (Section 6(iii) hybrid degree).

    μ_interv and μ_aggr live on incomparable scales (aggravation ratios
    can blow up to 10⁶ while intervention degrees stay near Q(D)), so
    the hybrid combines *ranks* rather than raw scores:
    ``mu_hybrid = −(weight·rank_interv + (1−weight)·rank_aggr)``, with
    rank 1 = best and tied degrees sharing the lowest rank of their tie
    (SQL ``RANK()``), so the hybrid is a function of the two degree
    columns alone, not of *M*'s row order.  Rows whose either degree is
    undefined get NULL.

    The last result is kept on *m* (one slot, keyed by the weight), so
    re-ranking one cached table by the same hybrid reuses its table and
    that table's rankings.
    """
    from ..engine.types import is_missing, sort_key

    if not 0.0 <= weight <= 1.0:
        raise ExplanationError(f"hybrid weight must be in [0, 1], got {weight}")
    if m.table.has_column(MU_HYBRID):
        return m
    # 1 and 1.0 render differently in the column, so the type is keyed too.
    key = (type(weight), weight)
    slot = m._memo.get(MU_HYBRID)
    if slot is not None and slot[0] == key:
        return slot[1]

    def ranks(column: List[Value]) -> List[Optional[int]]:
        first_rank: Dict[Tuple, int] = {}
        degrees = sorted(
            (sort_key(v) for v in column if not is_missing(v)), reverse=True
        )
        for rank, degree in enumerate(degrees, start=1):
            first_rank.setdefault(degree, rank)
        return [
            None if is_missing(v) else first_rank[sort_key(v)] for v in column
        ]

    hybrid_col: List[Value] = [
        NULL if ri is None or ra is None else -(weight * ri + (1 - weight) * ra)
        for ri, ra in zip(
            ranks(m.table.column(MU_INTERV)), ranks(m.table.column(MU_AGGR))
        )
    ]
    table = Table.from_columns(
        list(m.table.columns) + [MU_HYBRID],
        m.table.column_arrays() + [hybrid_col],
        nrows=len(m.table),
    )
    hybrid = ExplanationTable(
        table=table,
        attributes=m.attributes,
        aggregate_names=m.aggregate_names,
        q_original=m.q_original,
    )
    m._memo[MU_HYBRID] = (key, hybrid)
    return hybrid


def _fill_missing_values(
    joined: Table, query: NumericalQuery, value_columns: Sequence[str]
) -> Table:
    """Replace NULL fills in aggregate columns by empty-input defaults."""
    defaults = {
        f"v_{q.name}": q.aggregate.default_value for q in query.aggregates
    }
    for c in value_columns:
        joined.position(c)  # raise early on unknown columns
    store = joined.store()
    value_set = set(value_columns)
    data: List[List[Value]] = []
    for i, name in enumerate(joined.columns):
        col = store.column(i)
        if name in value_set:
            default = defaults[name]
            col = [default if is_null(v) else v for v in col]
        data.append(col)
    return Table.from_columns(joined.columns, data, nrows=len(joined))
