"""Hypothesis strategies for arrays."""

from __future__ import annotations

from hypothesis import strategies as st

from dpda import Dpda

from fuzz import random_well_formed, valid_corpus


@st.composite
def well_formed_dpdas(draw) -> Dpda:
    """Arbitrary structurally well-formed arrays (conditions not enforced)."""
    return random_well_formed(draw(st.randoms(use_true_random=False)))


valid_dpdas = st.sampled_from(valid_corpus())
