"""ghostdim: homological dimensions of finite rings through their derived categories.

Computes projective dimensions of perfect complexes by ghost towers, weak
and global dimension by syzygies and Tor, ghost dimension over seeded
compact batteries, flat dimension through the universal-coefficient
filtration, and Rouquier-style build witnesses, over two backends: Z/n and
finite-dimensional F_p-algebras.
"""

from .complexes import (
    ChainMap,
    Complex,
    Homotopy,
    Triangle,
    cone,
    dual_complex,
    free_complex,
    module_complex,
    null_homotopy,
    resolution_complex,
    suspend,
    three_by_three,
)
from .dimensions import (
    DimReport,
    ghdim_ring,
    module_fdim_tor,
    module_pdim,
    rouquier_build,
    standard_battery,
    symmetry_report,
    wdim_ring,
)
from .errors import GhostdimError
from .ghosts import (
    Tower,
    factor_through_projective,
    ghost_tower,
    pdim_complex,
    universal_ghost,
)
from .modules import (
    FgModule,
    ModuleMap,
    find_isomorphism,
    free_cover,
    free_module,
    hom_generators,
    is_projective,
    make_module,
    tensor_modules,
)
from .rings import BUILTIN_NAMES, Ring, RingSpec, builtin_ring, load_ring_file, make_ring, zmod
from .tensor_ss import (
    FiltrationTable,
    fdim_via_ss,
    resolution_filtration,
    tensor_complexes,
    tor,
    ucss_filtration,
)
from .verdicts import Verdict

__all__ = [
    "BUILTIN_NAMES",
    "ChainMap",
    "Complex",
    "DimReport",
    "FgModule",
    "FiltrationTable",
    "GhostdimError",
    "Homotopy",
    "ModuleMap",
    "Ring",
    "RingSpec",
    "Tower",
    "Triangle",
    "Verdict",
    "builtin_ring",
    "cone",
    "dual_complex",
    "factor_through_projective",
    "fdim_via_ss",
    "find_isomorphism",
    "free_complex",
    "free_cover",
    "free_module",
    "ghdim_ring",
    "ghost_tower",
    "hom_generators",
    "is_projective",
    "load_ring_file",
    "make_module",
    "make_ring",
    "module_complex",
    "module_fdim_tor",
    "module_pdim",
    "null_homotopy",
    "pdim_complex",
    "resolution_complex",
    "resolution_filtration",
    "rouquier_build",
    "standard_battery",
    "suspend",
    "symmetry_report",
    "tensor_complexes",
    "tensor_modules",
    "three_by_three",
    "tor",
    "ucss_filtration",
    "universal_ghost",
    "wdim_ring",
    "zmod",
]
