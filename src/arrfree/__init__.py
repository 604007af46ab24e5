"""Freeness of central hyperplane arrangements via generic initial ideals
and sectional matrices of the Jacobian ideal, with converters between
exponents, Betti tables, lex-segment ideals and explicit free arrangements.
"""

from .polyring import DimensionError, Polynomial, PowerProduct, variables
from .monomial import (INFINITE, BettiTable, LexSegmentShape, MonomialIdeal,
                       NotStronglyStableError, SectionalMatrix,
                       StronglyStableIdeal, betti_eliahou_kervaire,
                       codimension, hilbert_function, is_cm_codim2_stable,
                       is_cohen_macaulay, is_strongly_stable, reduction_number,
                       regularity_stable, sectional_matrix, triangle_equality)
from .groebner import (DegreeCapExceeded, GroebnerBasis, buchberger,
                       leading_term_ideal, normal_form)
from .gin import (GenericityExhaustedError, GinCertificate, GinConfig,
                  random_linear_change, rgin)
from .arrangement import (Arrangement, ArrangementError, ConjectureReport,
                          ExponentVector, FreenessReport,
                          InternalConsistencyError, NotFreeRginError,
                          RealizabilityVerdict, analyze, check_conjecture_Z,
                          exponents_from_rgin, jacobian_ideal, jacobian_rgin,
                          realizable_as_free, rgin_from_exponents,
                          supersolvable_from_exponents)

__version__ = "0.1.0"
