"""fglab: exact-arithmetic laboratory for one-dimensional formal group laws
over unramified p-adic coefficient rings."""

from .padic import (
    INF,
    Embedding,
    RingDescriptor,
    UnramifiedRingElem,
    minimal_modulus,
    multiplicative_generator,
    multiplicative_order,
    residue_power_test,
    teichmuller_digits,
    teichmuller_lift,
)
from .series import TruncSeries1, TruncSeries2
from .groups import (
    FormalGroupLaw,
    FrobeniusSeries,
    ModuleStructure,
    ObstructionError,
    honda_group,
    lubin_tate_group,
    multiplicative_group,
)
from .weier import (
    PhiDecomposition,
    WeierstrassData,
    digit_split_step,
    division_polynomial,
    phi_basis_decompose,
    phi_reconstruct,
    weierstrass_divide,
    weierstrass_prep,
)
from .torsion import (
    NewtonPolygon,
    TorsionFieldModel,
    assumption_check,
    certify_torsion_degree,
    mu_p_membership,
    newton_polygon,
    ramification_breaks,
    torsion_count,
)
from .endo import (
    compute_endo_subfield,
    multiplier_closure_sample,
    tau_infinity_check,
    try_endomorphism,
)
from .matrices import (
    BlockMatrixSpec,
    build_phi_zeta,
    check_relations,
    commutant_dimension,
    unit_quotient_order,
)
from .corpus import corpus, make_group

__version__ = "0.1.0"
