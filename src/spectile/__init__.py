"""Exact spectral-set and tiling decisions on finite abelian groups.

Decides whether subsets of a finite abelian group (given as a product of
cyclic factors) are spectral and/or tiles, produces certifying witnesses
(spectra, tiling complements, subgroup complements), and runs desk-scale
verification sweeps of the spectral <=> tile equivalence on groups of shape
Z_p^2 x Z_q^2.
"""

import types as _types

from .errors import (
    UNDECIDED,
    BudgetExhausted,
    EmptyInput,
    GroupMismatch,
    InvalidArgument,
    InvalidDirection,
    InvalidElement,
    InvalidModulus,
    NotADivisor,
    NotASpectralPair,
    NotATilingPair,
    NotPQShape,
    NotTwoDistinctPrimes,
    Overflow,
    ParseError,
    SpectileError,
    TheoremViolation,
    TooSmall,
    Undecided,
    WrongShape,
)
from .groups import (
    Direction,
    Element,
    Group,
    Multiset,
    Subgroup,
    annihilator,
    automorphism_index_perms,
    cyclic_subgroup,
    determined_directions,
    direction_rep,
    dot,
    element_order,
    make_group,
    subgroups_of_order,
    sylow_projection,
)
from .cyclotomic import (
    CubeDecomposition,
    CyclotomicInt,
    ZeroSet,
    char_sum,
    cube_decompose,
    cyclotomic_poly,
    euler_phi,
    zero_set,
)
from .spectra import (
    SpectrumWitness,
    equidistributed,
    find_spectrum,
    is_spectral_pair,
)
from .tiling import (
    ComplementMethod,
    ComplementWitness,
    enumerate_tiles,
    find_complement,
    find_tiling_complement,
    is_tiling_pair,
    tiles_by_subgroup,
)
from .structure import (
    CaseKind,
    CaseTag,
    LeafConstancy,
    LeafDecomposition,
    PQShape,
    TrichotomyResult,
    TrichotomyWitnessKind,
    assumption_a_holds,
    classify_case,
    direction_trichotomy,
    divisibility_class,
    leaf_constancy,
    leaf_decomposition,
    pq_shape,
    prop1_validate,
)
from .harness import (
    ComplementConstruction,
    ConstructedComplement,
    ConstructedSpectrum,
    ProbeReport,
    SpectrumConstruction,
    VerificationPlan,
    VerificationReport,
    case5_nonexistence_probe,
    probe_sizes,
    spectral_to_complement,
    tile_to_spectrum,
    verify_fuglede,
)

__version__ = "0.1.0"

# the public names, less the submodules that the imports above bind
__all__ = [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _types.ModuleType)]
