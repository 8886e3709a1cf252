"""Vectorized (numpy) per-aggregate cube for count aggregates.

The paper's Algorithm 1 cubes each aggregate query separately; this
module is that per-aggregate cube for ``count(*)`` and
``count(distinct col)``:

1. factorize each dimension column into integer codes;
2. per grouping set, fold the selected codes into one mixed-radix key
   per row (vectorized);
3. ``np.unique(keys, return_counts=True)`` gives the group counts; for
   distinct counts, deduplicate (key, argument-code) pairs first.

Output is equal to :func:`repro.engine.cube.cube` (Python ints, NULL
markers for don't-care dimensions), verified by tests.  Algorithm 1 no
longer uses it: one conditional-aggregate cube
(:func:`repro.engine.cube.conditional_cube`) builds every in-memory
table *M*.  It remains the per-aggregate kernel of the paper's pipeline
in ``benchmarks/bench_ablation_dummy_join.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from .aggregates import AggregateSpec
from .cube import grouping_sets
from .table import Table
from .types import NULL, Row, Value, is_null

if TYPE_CHECKING:
    import numpy as np

SUPPORTED_KINDS = ("count_star", "count_distinct")


def supports(aggregates: Sequence[AggregateSpec]) -> bool:
    """True iff every aggregate has a vectorized implementation."""
    return all(a.kind in SUPPORTED_KINDS for a in aggregates)


def _factorize(
    table: Table, column: str, *, allow_null: bool = False
) -> Tuple[np.ndarray, List[Value]]:
    """Map a column to integer codes plus the decoding list."""
    import numpy as np

    mapping: Dict[Value, int] = {}
    values: List[Value] = []
    codes = np.empty(len(table), dtype=np.int64)
    for i, v in enumerate(table.column(column)):
        if is_null(v):
            if not allow_null:
                raise QueryError(
                    f"cube dimension {column!r} contains NULL; NULL "
                    "grouping values are ambiguous with the cube's "
                    "don't-care marker"
                )
            v = NULL
        code = mapping.get(v)
        if code is None:
            code = len(values)
            mapping[v] = code
            values.append(v)
        codes[i] = code
    return codes, values


def cube_numpy(
    table: Table,
    dimensions: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Vectorized ``GROUP BY … WITH CUBE`` for count aggregates.

    Semantically identical to :func:`repro.engine.cube.cube` restricted
    to ``count_star`` / ``count_distinct`` aggregates.
    """
    import numpy as np  # imported on first use: most runs never cube

    if not supports(aggregates):
        unsupported = [a.kind for a in aggregates if a.kind not in SUPPORTED_KINDS]
        raise QueryError(
            f"cube_numpy supports {SUPPORTED_KINDS}, not {unsupported}"
        )
    if len(set(dimensions)) != len(dimensions):
        raise QueryError(f"duplicate cube dimensions: {dimensions}")
    aliases = [a.alias for a in aggregates]
    if len(set(aliases)) != len(aliases):
        raise QueryError(f"duplicate aggregate aliases: {aliases}")
    if set(aliases) & set(dimensions):
        raise QueryError("aggregate aliases clash with cube dimensions")

    n = len(table)
    dim_codes: List[np.ndarray] = []
    dim_values: List[List[Value]] = []
    for d in dimensions:
        codes, values = _factorize(table, d)
        dim_codes.append(codes)
        dim_values.append(values)
    radices = [max(len(v), 1) for v in dim_values]

    arg_codes: List[Optional[np.ndarray]] = []
    arg_valid: List[Optional[np.ndarray]] = []
    for a in aggregates:
        if a.kind == "count_star":
            arg_codes.append(None)
            arg_valid.append(None)
        else:
            codes, values = _factorize(table, a.argument, allow_null=True)
            null_code = next(
                (i for i, v in enumerate(values) if v is NULL), None
            )
            valid = (
                np.ones(n, dtype=bool)
                if null_code is None
                else codes != null_code
            )
            arg_codes.append(codes)
            arg_valid.append(valid)

    # Accumulate results per grouping set.
    results: Dict[Row, List[Value]] = {}
    masks = [
        tuple(d in s for d in dimensions) for s in grouping_sets(dimensions)
    ]
    for mask in masks:
        selected = [i for i, keep in enumerate(mask) if keep]
        if n:
            keys = np.zeros(n, dtype=np.int64)
            for i in selected:
                keys = keys * radices[i] + dim_codes[i]
        else:
            keys = np.zeros(0, dtype=np.int64)

        per_agg: List[Dict[int, int]] = []
        group_keys: Optional[np.ndarray] = None
        for a, codes, valid in zip(aggregates, arg_codes, arg_valid):
            if a.kind == "count_star":
                uniq, counts = np.unique(keys, return_counts=True)
                per_agg.append(dict(zip(uniq.tolist(), counts.tolist())))
            else:
                assert codes is not None and valid is not None
                sub_keys = keys[valid]
                sub_codes = codes[valid]
                if len(sub_keys):
                    pairs = np.unique(
                        np.stack([sub_keys, sub_codes], axis=1), axis=0
                    )
                    uniq, counts = np.unique(pairs[:, 0], return_counts=True)
                    per_agg.append(dict(zip(uniq.tolist(), counts.tolist())))
                else:
                    per_agg.append({})
            if group_keys is None:
                group_keys = np.unique(keys)

        assert group_keys is not None
        for key in group_keys.tolist():
            # Decode the mixed-radix key back into dimension values.
            decoded: List[Value] = [NULL] * len(dimensions)
            remainder = key
            for i in reversed(selected):
                remainder, code = divmod(remainder, radices[i])
                decoded[i] = dim_values[i][code]
            out_key = tuple(decoded)
            results[out_key] = [
                agg_map.get(key, 0) for agg_map in per_agg
            ]

    grand_total: Row = (NULL,) * len(dimensions)
    if grand_total not in results:
        results[grand_total] = [0 for _ in aggregates]

    out_rows = [key + tuple(vals) for key, vals in results.items()]
    return Table(list(dimensions) + aliases, out_rows)
