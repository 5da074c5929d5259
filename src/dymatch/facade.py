"""Constants and shipped code tables of the reference installation.

A south wall of 4264 movable slats, three positions each (left, right,
middle), displays compressed text while keeping the average shadow cast
on the workspaces below at a third of the slot width. The numbers here
pin down that instance. On the original text corpus, which is not
distributed with the package, the installation reported slat
frequencies (0.3838, 0.39457, 0.22162) at an average shadow of 0.20881 m
and a bit balance of 0.494, and (0.39132, 0.4317, 0.17698) at 0.20301 m
under the stricter budget 0.206.
"""
from __future__ import annotations

from importlib import resources

from .codes import PrefixCode, SymbolAlphabet, load_code
from .pmf import CostVector, Pmf

# geometry: slat positions and the shadow width (in meters) each casts
# into a 0.625 m slot
SLAT_ALPHABET = SymbolAlphabet(("l", "r", "m"))
SLAT_COSTS = CostVector(("0.18", "0.18", "0.31"))
SLOT_WIDTH = 0.625

# display target: all three positions equally often
TARGET = Pmf.uniform(3)

SLAT_COUNT = 4264


def _load_data(name: str) -> PrefixCode:
    path = resources.files(__package__).joinpath("data", name)
    with resources.as_file(path) as p:
        return load_code(p)


def source_code() -> PrefixCode:
    """Huffman code for lowercase text on the installation's corpus."""
    return _load_data("facade_source_code.tsv")


def matcher_code() -> PrefixCode:
    """Cost-constrained matcher over slat triples at the 0.2063 budget."""
    return _load_data("facade_matcher_k3.tsv")
