"""Exact chromatic symmetric functions in the elementary basis.

Closed-form expansions for paths, cycles, tadpoles, and chorded
cycles, an independent edge-subset oracle for arbitrary graphs carried
over their degree-2 chains (which also answers for multipath and theta
graphs), and e-positivity certification, all in exact integer
arithmetic.  Every other name imports from its own module.
"""

from .compositions import chord_weight
from .engine import (
    closed_formula,
    csf_cycle,
    csf_cycle_chord,
    csf_oracle,
    csf_path,
    csf_tadpole,
    verify,
)
from .graphs import Family, Graph, GraphSpec, ResourceLimitError, build_graph, theta_graph
from .symfunc import (
    Basis,
    SymFunc,
    is_e_positive,
    p_to_e,
    principal_specialization,
    render_text,
    to_json_dict,
)

__version__ = "0.1.0"
