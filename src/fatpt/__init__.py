"""Fat point schemes at general points of the plane: Hilbert functions,
graded Betti numbers, exceptional curves and their splitting types, with
exact verification over prime fields."""

from .errors import ConjectureViolation, InfeasibleError, InputError
from .exactla import DEFAULT_PRIME, check_prime
from .lattice import (
    DivisorClass,
    FatPointScheme,
    binom2,
    canonical_class,
    chi,
    class_of,
    format_class,
    format_mults,
    intersect,
    line_class,
    parse_class,
    parse_mults,
    point_class,
    selfint,
)
from .weyl import (
    IN_CHAMBER,
    NEG_L,
    NEG_LINE,
    ReducedForm,
    apply_word,
    enumerate_exceptional,
    format_word,
    is_exceptional,
    line_reduction,
    orbit_of_line,
    reduce,
)
from .linsys import (
    Decomposition,
    HilbertReport,
    alpha_degree,
    decompose,
    expected_h0,
    expected_h1,
    fixed_part,
    hilbert,
)
from .splitting import (
    DEFAULT_SEED,
    SplitPrediction,
    SplittingType,
    compute_splittings,
    defect_sum,
    draw_points,
    forced_type,
    is_provisional,
    predict_report,
    split_bounds,
    splittings_of,
)
from .cokernel import (
    DEFAULT_COLUMN_CEILING,
    MuVerdict,
    cok_dimension,
    fat_point_matrix,
    mu_rank_oracle,
    predicted_cokernel,
    proven_case,
)
from .betti import (
    AlphaOneResult,
    BettiBoundData,
    ResolutionTable,
    assemble_resolution,
    betti_alpha_plus_one,
    bettibound_data,
    check_hilbert_consistency,
    expected_betti,
    regularity,
)

__version__ = "0.1.0"
