"""Knotoid Gauss diagrams and their three-variable index invariant H(t,y,z).

The library parses Gauss codes, computes the invariant under either
exponent-reduction policy, applies Reidemeister moves, resolves singular
chords, and derives Gordian distance lower bounds from crossing-change
deltas.  See the `knotoidh` command for the CLI.

The package's public names are its modules' `__all__`, republished here.
"""

from .gauss import *
from .gordian import *
from .invariant import *
from .moves import *
from .singular import *
from .zpoly import *

__version__ = "0.1.0"
