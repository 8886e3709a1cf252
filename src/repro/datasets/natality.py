"""Synthetic natality workload (Section 5.1).

The paper uses the CDC 2010 natality file: 4,007,106 births, 233
attributes.  That file is not redistributable, so this module
generates a seeded synthetic table over the attributes the paper's
experiments actually touch, with conditional distributions planted
from the published marginals (Figure 7) and effect directions chosen
so the qualitative top explanations (Figures 10–11) emerge:

* Asian mothers skew married / older / non-smoking / highly educated /
  early prenatal care — the protective profile behind Q_Race;
* the APGAR-poor odds rise with smoking, late or missing prenatal
  care, very young age, low education, hypertension and diabetes.

Schema: a single relation ``Birth`` with primary key ``bid`` — exactly
the single-wide-table shape of the paper's natality experiments, where
``count(*)`` numerical queries are intervention-additive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..core.numquery import AggregateQuery, double_ratio_query, ratio_query
from ..core.question import UserQuestion
from ..engine.aggregates import count_star
from ..engine.database import Database
from ..engine.expressions import Col, Comparison, Const, conj
from ..engine.schema import DatabaseSchema, single_table_schema

if TYPE_CHECKING:
    import numpy as np

#: Paper-reported row count of the full dataset (Section 5.1).
FULL_SCALE_ROWS = 4_007_106

AP_VALUES = ("good", "poor")
RACE_VALUES = ("White", "Black", "AmInd", "Asian")
MARITAL_VALUES = ("married", "unmarried")
AGE_VALUES = ("<15", "15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45+")
TOBACCO_VALUES = ("smoking", "nonsmoking")
PRENATAL_VALUES = ("1st", "2nd", "3rd", "none")
EDU_VALUES = ("<9yrs", "9-11yrs", "12yrs", "13-15yrs", ">=16yrs")
SEX_VALUES = ("M", "F")
YESNO_VALUES = ("yes", "no")

#: Race marginals from the Figure 7 column sums.
_RACE_P = (0.762, 0.158, 0.012, 0.068)

_MARRIED_P = {"White": 0.62, "Black": 0.29, "AmInd": 0.40, "Asian": 0.85}
_SMOKING_P = {"White": 0.10, "Black": 0.08, "AmInd": 0.20, "Asian": 0.02}
_PRENATAL_P = {
    "White": [0.75, 0.17, 0.05, 0.03],
    "Black": [0.60, 0.25, 0.09, 0.06],
    "AmInd": [0.55, 0.27, 0.11, 0.07],
    "Asian": [0.85, 0.10, 0.03, 0.02],
}
_EDU_P = {
    "White": [0.04, 0.10, 0.25, 0.30, 0.31],
    "Black": [0.06, 0.18, 0.32, 0.30, 0.14],
    "AmInd": [0.08, 0.20, 0.35, 0.27, 0.10],
    "Asian": [0.03, 0.05, 0.15, 0.22, 0.55],
}
_AGE_P = {
    "White": [0.001, 0.080, 0.230, 0.290, 0.250, 0.120, 0.027, 0.002],
    "Black": [0.004, 0.170, 0.320, 0.250, 0.150, 0.080, 0.025, 0.001],
    "AmInd": [0.003, 0.180, 0.330, 0.260, 0.140, 0.070, 0.016, 0.001],
    "Asian": [0.0005, 0.030, 0.120, 0.270, 0.330, 0.200, 0.045, 0.0045],
}

#: Base odds of AP = poor and the multiplicative risk factors.
_BASE_POOR_ODDS = 0.020
#: Residual race-level effect beyond the shared covariates, calibrated
#: so the Figure 8 ordering (Asian > White > AmInd > Black good/poor
#: ratios) is unambiguous at benchmark scales.
_RACE_ODDS = {"White": 1.00, "Black": 1.45, "AmInd": 1.20, "Asian": 0.70}
_MARITAL_ODDS = {"married": 0.75, "unmarried": 1.30}
_TOBACCO_ODDS = {"smoking": 1.60, "nonsmoking": 0.95}
_PRENATAL_ODDS = {"1st": 0.80, "2nd": 1.10, "3rd": 1.30, "none": 2.20}
_EDU_ODDS = {
    "<9yrs": 1.40,
    "9-11yrs": 1.30,
    "12yrs": 1.05,
    "13-15yrs": 0.95,
    ">=16yrs": 0.80,
}
_AGE_ODDS = {
    "<15": 2.00,
    "15-19": 1.40,
    "20-24": 1.10,
    "25-29": 0.95,
    "30-34": 0.85,
    "35-39": 1.00,
    "40-44": 1.20,
    "45+": 1.50,
}
_HYPERTENSION_P = 0.05
_HYPERTENSION_ODDS = {"yes": 1.80, "no": 1.00}
_DIABETES_P = 0.06
_DIABETES_ODDS = {"yes": 1.40, "no": 1.00}
_SEX_ODDS = {"M": 1.05, "F": 0.95}

PLURALITY_VALUES = ("single", "twin", "higher")
GESTATION_VALUES = ("preterm", "term", "postterm")
DELIVERY_VALUES = ("vaginal", "cesarean")
BIRTHPLACE_VALUES = ("hospital", "other")

_PLURALITY_P = (0.965, 0.033, 0.002)
_PLURALITY_ODDS = {"single": 1.00, "twin": 2.20, "higher": 4.00}
_GESTATION_P = (0.12, 0.82, 0.06)
_GESTATION_ODDS = {"preterm": 2.50, "term": 0.85, "postterm": 1.20}
_DELIVERY_P = 0.33  # cesarean share
_DELIVERY_ODDS = {"vaginal": 0.95, "cesarean": 1.15}
_BIRTHPLACE_P = 0.015  # non-hospital share
_BIRTHPLACE_ODDS = {"hospital": 1.00, "other": 1.60}

COLUMNS = (
    "bid",
    "ap",
    "race",
    "marital",
    "age",
    "tobacco",
    "prenatal",
    "education",
    "sex",
    "hypertension",
    "diabetes",
    "plurality",
    "gestation",
    "delivery",
    "birthplace",
)


def schema(noise_attributes: int = 0) -> DatabaseSchema:
    """The single-relation Birth schema (plus optional noise columns)."""
    columns = list(COLUMNS) + [
        f"x{i}" for i in range(1, noise_attributes + 1)
    ]
    return single_table_schema(
        "Birth",
        columns,
        ["bid"],
        dtypes={"bid": "int", **{c: "str" for c in columns[1:]}},
    )


def _odds_lookup(values: Sequence[str], odds: Dict[str, float]) -> np.ndarray:
    import numpy as np

    return np.array([odds[v] for v in values])


def generate(
    rows: int = 50_000, seed: int = 2014, *, noise_attributes: int = 0
) -> Database:
    """Generate a seeded synthetic natality database.

    ``rows`` scales the instance (the paper varies 0.01%–100% of 4M);
    identical (rows, seed, noise_attributes) triples produce identical
    databases.  ``noise_attributes`` appends that many categorical
    columns (``x1 … xN``, 3–6 values each) with *no* effect on the
    APGAR outcome — stand-ins for the real file's 233-column width,
    useful for stressing wide attribute sweeps.
    """
    import numpy as np  # only generating natality needs numpy

    race_p = np.array(_RACE_P)
    rng = np.random.default_rng(seed)
    race_idx = rng.choice(len(RACE_VALUES), size=rows, p=race_p / race_p.sum())

    marital_idx = np.empty(rows, dtype=np.int64)
    tobacco_idx = np.empty(rows, dtype=np.int64)
    prenatal_idx = np.empty(rows, dtype=np.int64)
    edu_idx = np.empty(rows, dtype=np.int64)
    age_idx = np.empty(rows, dtype=np.int64)
    for r, race in enumerate(RACE_VALUES):
        mask = race_idx == r
        count = int(mask.sum())
        if count == 0:
            continue
        marital_idx[mask] = (rng.random(count) >= _MARRIED_P[race]).astype(int)
        tobacco_idx[mask] = (rng.random(count) >= _SMOKING_P[race]).astype(int)
        p = np.array(_PRENATAL_P[race])
        prenatal_idx[mask] = rng.choice(len(PRENATAL_VALUES), size=count, p=p / p.sum())
        p = np.array(_EDU_P[race])
        edu_idx[mask] = rng.choice(len(EDU_VALUES), size=count, p=p / p.sum())
        p = np.array(_AGE_P[race])
        age_idx[mask] = rng.choice(len(AGE_VALUES), size=count, p=p / p.sum())

    sex_idx = (rng.random(rows) >= 0.512).astype(int)  # slight male excess
    hyper_idx = (rng.random(rows) >= _HYPERTENSION_P).astype(int)  # 0=yes
    diab_idx = (rng.random(rows) >= _DIABETES_P).astype(int)
    plur_idx = rng.choice(
        len(PLURALITY_VALUES), size=rows, p=np.array(_PLURALITY_P)
    )
    gest_idx = rng.choice(
        len(GESTATION_VALUES), size=rows, p=np.array(_GESTATION_P)
    )
    # index 0 = vaginal, 1 = cesarean; 0 = hospital, 1 = other.
    deliv_idx = (rng.random(rows) < _DELIVERY_P).astype(int)
    birthplace_idx = (rng.random(rows) < _BIRTHPLACE_P).astype(int)

    odds = np.full(rows, _BASE_POOR_ODDS)
    odds *= _odds_lookup(RACE_VALUES, _RACE_ODDS)[race_idx]
    odds *= _odds_lookup(MARITAL_VALUES, _MARITAL_ODDS)[marital_idx]
    odds *= _odds_lookup(TOBACCO_VALUES, _TOBACCO_ODDS)[tobacco_idx]
    odds *= _odds_lookup(PRENATAL_VALUES, _PRENATAL_ODDS)[prenatal_idx]
    odds *= _odds_lookup(EDU_VALUES, _EDU_ODDS)[edu_idx]
    odds *= _odds_lookup(AGE_VALUES, _AGE_ODDS)[age_idx]
    odds *= _odds_lookup(YESNO_VALUES, _HYPERTENSION_ODDS)[hyper_idx]
    odds *= _odds_lookup(YESNO_VALUES, _DIABETES_ODDS)[diab_idx]
    odds *= _odds_lookup(SEX_VALUES, _SEX_ODDS)[sex_idx]
    odds *= _odds_lookup(PLURALITY_VALUES, _PLURALITY_ODDS)[plur_idx]
    odds *= _odds_lookup(GESTATION_VALUES, _GESTATION_ODDS)[gest_idx]
    odds *= _odds_lookup(DELIVERY_VALUES, _DELIVERY_ODDS)[deliv_idx]
    odds *= _odds_lookup(BIRTHPLACE_VALUES, _BIRTHPLACE_ODDS)[birthplace_idx]
    poor_p = odds / (1 + odds)
    ap_idx = (rng.random(rows) < poor_p).astype(int)  # 1 = poor

    noise_columns: List[np.ndarray] = []
    for i in range(1, noise_attributes + 1):
        cardinality = 3 + (i % 4)  # 3-6 values per noise column
        labels = np.array([f"x{i}v{j}" for j in range(cardinality)])
        noise_columns.append(labels[rng.choice(cardinality, size=rows)])

    database = Database(schema(noise_attributes))
    relation = database.relation("Birth")
    ap = np.array(AP_VALUES)[ap_idx]
    race = np.array(RACE_VALUES)[race_idx]
    marital = np.array(MARITAL_VALUES)[marital_idx]
    age = np.array(AGE_VALUES)[age_idx]
    tobacco = np.array(TOBACCO_VALUES)[tobacco_idx]
    prenatal = np.array(PRENATAL_VALUES)[prenatal_idx]
    education = np.array(EDU_VALUES)[edu_idx]
    sex = np.array(SEX_VALUES)[sex_idx]
    hypertension = np.array(YESNO_VALUES)[hyper_idx]
    diabetes = np.array(YESNO_VALUES)[diab_idx]
    plurality = np.array(PLURALITY_VALUES)[plur_idx]
    gestation = np.array(GESTATION_VALUES)[gest_idx]
    delivery = np.array(DELIVERY_VALUES)[deliv_idx]
    birthplace = np.array(BIRTHPLACE_VALUES)[birthplace_idx]
    columns = [
        range(rows),
        ap.tolist(),
        race.tolist(),
        marital.tolist(),
        age.tolist(),
        tobacco.tolist(),
        prenatal.tolist(),
        education.tolist(),
        sex.tolist(),
        hypertension.tolist(),
        diabetes.tolist(),
        plurality.tolist(),
        gestation.tolist(),
        delivery.tolist(),
        birthplace.tolist(),
    ]
    columns.extend(col.tolist() for col in noise_columns)
    relation.insert_many(zip(*columns))
    return database


# -- the paper's user questions -------------------------------------------

#: Epsilon added to all counts (Section 5.1.1: "a small threshold of
#: 0.0001 to all counts to avoid any division by zero").
EPSILON = 0.0001


def _count_where(name: str, **equals: str) -> AggregateQuery:
    atoms = [
        Comparison("=", Col(f"Birth.{attr}"), Const(value))
        for attr, value in equals.items()
    ]
    return AggregateQuery(name, count_star(name), conj(*atoms))


def q_race_question() -> UserQuestion:
    """``(Q_Race, high)``: Q = q1/q2, good vs poor APGAR for Asians."""
    q1 = _count_where("q1", ap="good", race="Asian")
    q2 = _count_where("q2", ap="poor", race="Asian")
    return UserQuestion.high(ratio_query(q1, q2, epsilon=EPSILON))


def q_race_prime_question() -> UserQuestion:
    """``(Q'_Race, high)``: (good/poor for Asian) / (good/poor for Black)."""
    q1 = _count_where("q1", ap="good", race="Asian")
    q2 = _count_where("q2", ap="poor", race="Asian")
    q3 = _count_where("q3", ap="good", race="Black")
    q4 = _count_where("q4", ap="poor", race="Black")
    return UserQuestion.high(double_ratio_query(q1, q2, q3, q4, epsilon=EPSILON))


def q_marital_question() -> UserQuestion:
    """``(Q_Marital, high)``: (good/poor married) / (good/poor unmarried)."""
    q1 = _count_where("q1", ap="good", marital="married")
    q2 = _count_where("q2", ap="poor", marital="married")
    q3 = _count_where("q3", ap="good", marital="unmarried")
    q4 = _count_where("q4", ap="poor", marital="unmarried")
    return UserQuestion.high(double_ratio_query(q1, q2, q3, q4, epsilon=EPSILON))


def default_attributes(question: str = "race") -> List[str]:
    """The five relevant attributes of Section 5.1.1.

    For Q_Race the fifth attribute is marital status; for Q_Marital it
    is race.
    """
    base = ["Birth.age", "Birth.tobacco", "Birth.prenatal", "Birth.education"]
    if question == "race":
        return base + ["Birth.marital"]
    if question == "marital":
        return base + ["Birth.race"]
    raise ValueError(f"question must be 'race' or 'marital', got {question!r}")


def extended_attributes() -> List[str]:
    """The eight-attribute set of the Figure 13b sweep."""
    return [
        "Birth.age",
        "Birth.tobacco",
        "Birth.prenatal",
        "Birth.education",
        "Birth.marital",
        "Birth.sex",
        "Birth.hypertension",
        "Birth.diabetes",
    ]


def wide_attributes() -> List[str]:
    """All twelve explanation-eligible attributes (sweeps beyond the
    paper's eight; the real CDC file has 233 columns)."""
    return extended_attributes() + [
        "Birth.plurality",
        "Birth.gestation",
        "Birth.delivery",
        "Birth.birthplace",
    ]


def figure7_table(database: Database) -> Dict[str, Dict[Tuple[str, str], int]]:
    """The Figure 7 contingency tables for the generated instance.

    Returns ``{"race": {(ap, race): count}, "marital": {(ap, m): count}}``.
    """
    from ..engine.universal import universal_table

    u = universal_table(database)
    ap_pos = u.position("Birth.ap")
    race_pos = u.position("Birth.race")
    marital_pos = u.position("Birth.marital")
    by_race: Dict[Tuple[str, str], int] = {}
    by_marital: Dict[Tuple[str, str], int] = {}
    for row in u.rows():
        key_r = (row[ap_pos], row[race_pos])
        by_race[key_r] = by_race.get(key_r, 0) + 1
        key_m = (row[ap_pos], row[marital_pos])
        by_marital[key_m] = by_marital.get(key_m, 0) + 1
    return {"race": by_race, "marital": by_marital}
