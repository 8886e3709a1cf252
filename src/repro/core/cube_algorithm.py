"""Algorithm 1: all explanation degrees via the data cube (Section 4.2).

Given an intervention-additive numerical query ``Q = E(q_1 … q_m)`` and
relevant attributes ``A'``:

1. select ``σ_{w_j}(U)`` once per aggregate query ``q_j``
   (:meth:`~repro.engine.table.Table.filter`): U is memoized per
   database version with its indexes, so the leading ``R.A = c``
   conjuncts of ``w_j`` read one posting instead of every cell, as the
   paper's DBMS answers them from an index;
2. compute one conditional-aggregate cube over ``A'``
   (:func:`~repro.engine.cube.conditional_cube`): aggregate ``j`` reads
   only ``σ_{w_j}(U)``, so each row φ holds ``v_j(φ) = q_j(D_φ)`` for
   every ``j`` at once, DUMMY marks "don't care", and an explanation
   with no rows for ``q_j`` reads its empty-input value (0 for counts).
   The grand-total row gives ``u_j = q_j(D)``;
3. per row, ``μ_interv(φ) = sign_i × E(u_1 − v_1, …, u_m − v_m)`` and
   ``μ_aggr(φ) = sign_a × E(v_1, …, v_m)``, one column at a time.

The paper instead cubes each ``q_j`` separately, rewrites the cube
NULLs to DUMMY and full-outer-joins the m cubes, because SQL Server
runs one ``WITH CUBE`` per query; the SQL backends
(:mod:`repro.backends`) still do, and share step 3 through
:func:`finalize_explanation_table`.

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
import operator
from array import array
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..engine.columnstore import Column, typed_column
from ..engine.cube import conditional_cube
from ..engine.table import Table
from ..engine.types import DUMMY, NULL, Value, is_dummy, is_null
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
    ``mu_interv`` and ``mu_aggr``.  The attribute columns are lists of
    references, each distinct value one shared object; each numeric
    column is a typed ``array('q')`` / ``array('d')`` when its cells
    allow one (:func:`finalize_explanation_table`).
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
    reaches the threshold (Section 5.1.1 uses 1000).

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
    ``use_fastpath`` is accepted for compatibility and chooses nothing:
    one cube kernel serves every in-memory build.
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

    # Steps 1-2: one selection σ_{w_j}(U) per aggregate query, one cube
    # with an m-vector of states per group.
    specs = [
        replace(q.aggregate, alias=f"v_{q.name}") for q in query.aggregates
    ]
    sources = []
    for q in query.aggregates:
        with phase("select", aggregate=q.name) as select_ph:
            sources.append(q.filtered(u))
            select_ph.annotate(rows=len(sources[-1]))
    joined = conditional_cube(sources, attributes, specs, dont_care=DUMMY)
    return table_from_cube(
        joined, question, attributes, support_threshold=support_threshold
    )


def table_from_cube(
    joined: Table,
    question: UserQuestion,
    attributes: Sequence[str],
    *,
    support_threshold: Optional[float] = None,
) -> ExplanationTable:
    """*M* from Algorithm 1's conditional-aggregate cube.

    *joined* has the attributes (DUMMY for "don't care") and one
    ``v_<name>`` column per aggregate, the grand total last, as
    :func:`~repro.engine.cube.conditional_cube` and
    :func:`~repro.engine.cube.cube_from_base_states` emit it.  The grand
    total gives ``u_j = q_j(D)``; step 3 adds μ and applies the support
    filter.  The cold build and the incremental delta builder share it.
    """
    # grouping_sets() lists the empty set last: the grand total u_j.
    q_original = {
        q.name: joined.column(f"v_{q.name}")[-1]
        for q in question.query.aggregates
    }
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
    """The last step of Algorithm 1: μ columns and the support filter.

    *joined* holds the explanation attributes (DUMMY marking "don't
    care") plus one ``v_<name>`` column per aggregate.  A NULL there
    reads as the aggregate's empty-input value (0 for counts): the SQL
    execution backends (:mod:`repro.backends`) marshal the paper's
    m-way outer join of per-aggregate cubes into *joined*, and a group
    missing from one cube arrives as NULL.  Sharing this step keeps the
    degree arithmetic — including the ±∞ division conventions of the
    engine expression evaluator — identical across backends.

    E is evaluated one column at a time
    (:meth:`~repro.engine.expressions.Expression.evaluate_columns`), once
    over the ``v_j`` columns and once over the ``u_j − v_j`` columns;
    a column without NULL is filled, subtracted and signed with no
    per-cell test.

    The support filter runs first, so μ is computed for the kept rows
    only.  Each ``v_j``, ``mu_interv`` and ``mu_aggr`` column of *M* is
    then a typed column (:func:`~repro.engine.columnstore.typed_column`)
    when its cells allow one, so the readers of *M* (the μ arithmetic
    here, :mod:`repro.core.topk`'s degree sort, the service cache's
    sizing) know its cells are plain numbers without scanning them.
    """
    query = question.query
    value_columns = [f"v_{q.name}" for q in query.aggregates]
    joined = _fill_missing_values(joined, query, value_columns)

    if support_threshold is not None:
        support_cols = [joined.column(c) for c in value_columns]
        joined = joined.take(
            [
                i
                for i in range(len(joined))
                if any(
                    not is_null(col[i]) and col[i] >= support_threshold
                    for col in support_cols
                )
            ]
        )

    # The attribute columns pass through untouched (zero copy); the
    # v_j columns are typed once, after the filter.
    n = len(joined)
    value_positions = set(joined.positions(value_columns))
    data = [
        typed_column(col) if i in value_positions else col
        for i, col in enumerate(joined.column_arrays())
    ]
    names = [q.name for q in query.aggregates]
    values = {
        name: data[joined.position(c)] for name, c in zip(names, value_columns)
    }
    remainders = {
        name: _remainders(q_original[name], col)
        for name, col in values.items()
    }
    mu_interv_col = _signed(
        question.intervention_sign,
        query.expression.evaluate_columns(remainders, n),
    )
    mu_aggr_col = _signed(
        question.aggravation_sign,
        query.expression.evaluate_columns(values, n),
    )
    m = Table.from_columns(
        list(joined.columns) + [MU_INTERV, MU_AGGR],
        data + [typed_column(mu_interv_col), typed_column(mu_aggr_col)],
        nrows=n,
    )
    return ExplanationTable(
        table=m,
        attributes=tuple(attributes),
        aggregate_names=tuple(query.names),
        q_original=q_original,
    )


def _remainders(original: Value, restricted: Column) -> List[Value]:
    """``u_j − v_j`` per row, NULL if either side is NULL or the values
    do not subtract (the max of a string column).  A typed column holds
    no NULL, so it is not scanned for one."""
    if is_null(original):
        return [NULL] * len(restricted)
    try:
        if isinstance(restricted, array) or NULL not in restricted:
            return list(map(operator.sub, repeat(original), restricted))
        return [NULL if is_null(v) else original - v for v in restricted]
    except TypeError:
        return [NULL] * len(restricted)


def _signed(sign: int, column: Column) -> Column:
    """``sign × v`` per row, NULL kept.  A typed column holds no NULL
    and stays typed; ``1 × v`` is ``v`` for its plain numbers."""
    if isinstance(column, array):
        if sign == 1:
            return column
        return typed_column(
            list(map(operator.mul, repeat(sign), column)), column.typecode
        )
    if NULL not in column:
        return list(map(operator.mul, repeat(sign), column))
    return [v if is_null(v) else sign * v for v in column]


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
    columns alone, not of *M*'s row order.  Degrees are ordered as top-K
    orders them, a NaN below every number.  Rows whose either degree is
    undefined get NULL.

    The last result is kept on *m* (one slot, keyed by the weight), so
    re-ranking one cached table by the same hybrid reuses its table and
    that table's rankings.
    """
    from ..engine.types import is_missing
    from .topk import _degree_codes

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
        codes = iter(_degree_codes([v for v in column if not is_missing(v)]))
        codes_of = [None if is_missing(v) else next(codes) for v in column]
        # RANK(): one more than the number of strictly better degrees.
        first_rank: Dict[int, int] = {}
        for rank, code in enumerate(
            sorted((c for c in codes_of if c is not None), reverse=True),
            start=1,
        ):
            first_rank.setdefault(code, rank)
        return [None if c is None else first_rank[c] for c in codes_of]

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
        if name in value_set and NULL in col:
            default = defaults[name]
            col = [default if is_null(v) else v for v in col]
        data.append(col)
    return Table.from_columns(joined.columns, data, nrows=len(joined))
