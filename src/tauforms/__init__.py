"""Exact q-expansion calculus for level-1 modular forms.

The package computes Rankin-Cohen brackets, higher Serre derivatives and
Eisenstein/eta-product expansions over exact rationals, reduces modular
averages of slowly growing seeds to linear relations on the Ramanujan tau
function, and verifies the resulting shifted L-series identities
numerically at controlled precision.
"""

from .arith import Rat, as_rat, bernoulli, binomial, pochhammer, rat_str
from .qseries import QSeries, delta_series
from .forms import (
    BasisCoords,
    Form,
    NotModularError,
    delta,
    dim_mk,
    dim_sk,
    e2,
    eisenstein,
    in_basis,
    mk_basis,
    one,
    sigma,
    tau,
    tau_table,
)
from .calculus import (
    QuasimodularInput,
    SeedConditionError,
    ramanujan_derivatives,
    rankin_cohen,
    rc_seed,
    serre,
    serre_recursive,
    serre_seed,
)
from .poincare import (
    FormalPoincare,
    Growth,
    TauIdentity,
    TauRelation,
    admissible,
    catalog_identity,
    derive_identity,
    eval_low_weight,
    eval_modular_seed,
    identity_catalog,
    reduce_weight12,
)
from .lseries import (
    LQuery,
    LResult,
    M0_CONSTANTS,
    PETERSSON_REF,
    TIERS,
    derive_m0_constants,
    exact_lhs_catalog,
    hidden_moment,
    lvalue_m0,
    petersson_recover,
    shifted_L,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "Rat",
    "as_rat",
    "bernoulli",
    "binomial",
    "pochhammer",
    "rat_str",
    "QSeries",
    "delta_series",
    "BasisCoords",
    "Form",
    "NotModularError",
    "delta",
    "dim_mk",
    "dim_sk",
    "e2",
    "eisenstein",
    "in_basis",
    "mk_basis",
    "one",
    "sigma",
    "tau",
    "tau_table",
    "QuasimodularInput",
    "SeedConditionError",
    "ramanujan_derivatives",
    "rankin_cohen",
    "rc_seed",
    "serre",
    "serre_recursive",
    "serre_seed",
    "FormalPoincare",
    "Growth",
    "TauIdentity",
    "TauRelation",
    "admissible",
    "catalog_identity",
    "derive_identity",
    "eval_low_weight",
    "eval_modular_seed",
    "identity_catalog",
    "reduce_weight12",
    "LQuery",
    "LResult",
    "M0_CONSTANTS",
    "PETERSSON_REF",
    "TIERS",
    "derive_m0_constants",
    "exact_lhs_catalog",
    "hidden_moment",
    "lvalue_m0",
    "petersson_recover",
    "shifted_L",
    "verify_identity",
]
