"""ghostdim: homological dimensions of finite rings through their derived categories.

Computes projective dimensions of perfect complexes by ghost towers, weak
and global dimension by syzygies and Tor, ghost dimension over seeded
compact batteries, flat dimension through the universal-coefficient
filtration, and Rouquier-style build witnesses, over two backends: Z/n and
finite-dimensional F_p-algebras.

The package re-exports nothing: callers import from the layers.  Importing
it loads each layer, which perfbench/spans.py relies on to find every
namespace that binds a traced function.
"""

from . import complexes, dimensions, ghosts, linalg, modules, tensor_ss  # noqa: F401
