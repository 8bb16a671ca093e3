"""Exact chromatic symmetric functions in the elementary basis.

Closed-form expansions for paths, cycles, tadpoles, and chorded
cycles, an independent edge-subset oracle for arbitrary graphs carried
over their degree-2 chains (which also answers for multipath and theta
graphs), and e-positivity certification, all in exact integer
arithmetic.
"""

from .compositions import (
    Composition,
    Partition,
    SegmentDissection,
    SplitParams,
    chord_weight,
    composition_weight,
    compositions,
    dominance_leq,
    e2_sym,
    partition_of,
    partitions,
    segment_dissection,
    split_params,
    surplus,
)
from .engine import (
    ThetaScanRow,
    VerificationReport,
    closed_formula,
    csf_cycle,
    csf_cycle_chord,
    csf_oracle,
    csf_path,
    csf_tadpole,
    scan_theta,
    theta_scan_cells,
    verify,
)
from .graphs import (
    Family,
    Graph,
    GraphSpec,
    ResourceLimitError,
    build_graph,
    chromatic_polynomial,
    count_proper_colorings,
    cycle_chord_graph,
    cycle_graph,
    is_nice,
    multipath_graph,
    path_graph,
    render_graph_spec,
    stable_partition_types,
    tadpole_graph,
    theta_graph,
)
from .symfunc import (
    Basis,
    EPositivityReport,
    SymFunc,
    is_e_positive,
    monomial,
    p_to_e,
    principal_specialization,
    render_latex,
    render_text,
    to_json_dict,
)

__version__ = "0.1.0"
