"""Exact symbolic workbench for symplectically flat connections.

Everything is computed over exact rational polynomial coefficients on a
single Darboux chart: the Lefschetz decomposition and symplectic operators,
the A-infinity algebra of primitive forms and its connection twisting, the
cone complex with its comparison maps, and the cohomology of both twisted
complexes by exact linear algebra.
"""

from .connection import (Connection, FlatnessReport, analyze_flatness, curvature,
                         covariant_d, covariant_d_end, gauge_apply, generate_flat,
                         unipotent_inverse, yang_mills_residual)
from .cone import (ConeElement, check_chain_identities, cone_d, cone_split,
                   homotopy_G, map_f, map_g)
from .cohomology import (CohomologyReport, TruncatedSpace, closedlem_check,
                         cohomology_dims, exactness_witness)
from .dsl import ParseError, parse_form, print_form
from .forms import (Form, MatrixForm, VectorForm, contract_lambda, exterior_d,
                    graded_commutator, lambda_standard, lambda_symmetric, omega,
                    omega_power, wedge)
from .lefschetz import L_power, decompose, del_minus, del_plus, is_primitive, pi_p, star_r
from .scalars import Poly
from .ainfinity import (PLUS, MINUS, PrimElement, add_elements, check_stasheff, m1, m2, m3,
                        scale_element)
from .twist import (check_square_zero, del_minus_A, del_plus_A, delta_sign,
                    m1_prime_of_A, twisted_m1, twisting_series)

__version__ = "0.1.0"
