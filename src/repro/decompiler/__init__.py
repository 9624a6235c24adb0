"""A miniature i386-to-C decompiler (the RelipmoC substrate, §6.4).

RelipmoC translates i386 assembly into C: it parses instructions, builds
basic blocks and a control-flow graph, runs data-flow (liveness) and
control-flow (dominators, natural loops) analyses, recovers structured
constructs (while loops, if/else diamonds) and emits C.  This package
implements that pipeline for a practical subset of i386, plus a seeded
assembly generator so inputs of any size can be produced offline.

The basic-block *set* — keyed by block start address and iterated in
address order — is the container the paper's experiment replaces
(set → avl_set).
"""

from repro.decompiler.isa import Instruction, parse_assembly
from repro.decompiler.codegen import generate_assembly
from repro.decompiler.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.decompiler.analysis import (
    compute_dominators,
    compute_liveness,
    find_natural_loops,
)
from repro.decompiler.expressions import fold_block_expressions
from repro.decompiler.optimize import optimize_cfg
from repro.decompiler.structure import recover_structure
from repro.decompiler.emit import emit_c

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "Instruction",
    "build_cfg",
    "compute_dominators",
    "compute_liveness",
    "emit_c",
    "find_natural_loops",
    "fold_block_expressions",
    "generate_assembly",
    "optimize_cfg",
    "parse_assembly",
    "recover_structure",
]
