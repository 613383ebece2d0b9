"""Knotoid Gauss diagrams and their three-variable index invariant H(t,y,z).

The library parses Gauss codes, computes the invariant under either
exponent-reduction policy, applies Reidemeister moves, resolves singular
chords, and derives Gordian distance lower bounds from crossing-change
deltas.  See the `knotoidh` command for the CLI.
"""

from .gauss import (SINGULAR, ChordView, Event, GaussCodeError, GaussDiagram,
                    bundled_diagrams, crossing_change, from_chord_positions,
                    load_gko, mirror, parse_gauss_code, parse_gko,
                    random_diagram, random_nested_diagram, reverse, serialize)
from .gordian import (DeltaPair, GordianDecomposition, NotHomotopyForm,
                      crossing_change_delta, decompose, decomposition_json,
                      gordian_lower_bound, reconstruct)
from .invariant import (Invariant, TermKey, compute_H, crossing_partition,
                        degree, index_function, index_polys, invariant_equal,
                        invariant_from_json, invariant_neg, invariant_sub,
                        invariant_to_json, nonzero_height_certificate, render,
                        subst_t_inverse, subst_z_inverse)
from .moves import (BACKWARD, FIRST_NEGATIVE, FIRST_POSITIVE, FORWARD,
                    MOVE_KINDS, MoveError, MoveSpec, R3Config, apply_move,
                    detect_r2, detect_r3, format_trace, inverse_spec,
                    parse_trace, r1_delete, r1_insert, r2_delete, r2_insert,
                    r3_apply, random_walk)
from .singular import (MAX_SINGULAR, make_singular, random_singular_diagram,
                       resolutions, singular_H)
from .zpoly import ReductionPolicy, ZPoly, reduce_exponent, reduce_poly

__version__ = "0.1.0"
