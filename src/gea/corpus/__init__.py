"""Shipped corpus: the worked examples and the broken fixtures, as JSON files.

Valid tables: excd (two orthogonal projectors), excd_ext (their four-element
effect fragment), diamond (the four-element effect algebra with two atoms),
chain_c3 (the three-element chain), cube8 (the Boolean cube on three atoms),
no_states (two atoms glued by doubling, so no state separates them) and
singleton.  Broken fixtures: broken_ge3 (cancellation fails) and
ea_no_complement (diamond with the top sum removed).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

VALID = ("singleton", "excd", "excd_ext", "diamond", "chain_c3", "cube8", "no_states")
BROKEN = ("broken_ge3", "ea_no_complement")
EFFECT_ALGEBRAS = ("excd_ext", "diamond", "chain_c3", "cube8")
MORPHISMS = ("id_d4", "incl_excd", "zero_d4")


def path(name: str) -> Path:
    """Filesystem path of a shipped corpus file (without the .json suffix)."""
    return Path(str(resources.files(__package__) / f"{name}.json"))


def load(name: str):
    from ..fileio import load_algebra

    return load_algebra(path(name))[0]


def load_morphism(name: str):
    from ..fileio import load_morphism

    return load_morphism(path(name))[0]
