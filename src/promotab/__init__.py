"""Promotion and evacuation dynamics on Young tableaux, finite posets, and
increasing tableaux, with exact (rational) homomesy verification."""

from .dynamics import (
    Orbit,
    SlideRecord,
    cycle,
    dual_evacuate,
    evacuate,
    evacuate_via_toggles,
    jdt_slide,
    orbit,
    partial_promote,
    promote,
    promote_inverse,
    promote_inverse_via_toggles,
    promote_via_toggles,
    promotion_period_words,
    rectify,
    slide_toggle,
    toggle,
)
from .errors import BudgetExceededError, ParseError, PreconditionError
from .growth import (
    ChainEncoding,
    GrowthWindow,
    build_window,
    column_evacuation,
    decode_chain,
    encode_chain,
    orbit_values,
)
from .homomesy import (
    CellStatistic,
    HomomesyReport,
    OrbitPartition,
    cell_sum,
    inc_system,
    orbit_average,
    partition_orbits,
    ssyt_system,
    symmetric_subsets,
    syt_poset_system,
    verdict,
)
from .ktableaux import (
    IncreasingTableau,
    enumerate_increasing,
    k_evacuate,
    k_promote,
    k_promote_inverse,
    switch,
)
from .paths import flow_multisets, interval_decomposition, promotion_path, trajectory
from .posets import (
    FinitePoset,
    LinearExtension,
    build_cominuscule,
    ferrers_poset,
    linear_extensions,
    poset_evacuate,
    poset_promote,
    poset_toggle,
    rotate,
)
from .shapes import (
    Tableau,
    Word,
    complement_reverse,
    count_ssyt,
    count_syt,
    enumerate_ssyt,
    enumerate_syt,
    format_tableau,
    parse_tableau,
    reading_word,
    rotate_complement,
    rsk_insert,
    validate,
)

__version__ = "0.1.0"
