"""Two-colored diagram machinery for planar five-vortex central configurations.

Subpackages cover exact polynomial algebra (`exactpoly`) and the checks
of it that do not use it (`exactcheck`), vorticity constraint reasoning
(`vorticity`), the diagram model and rules (`diagram`), sub-diagram lemma
matchers (`lemmas`), enumeration and catalog (`atlas`), rendering
(`render`), the quadrilateral ideal certificate (`quadrilateral`),
numerics for the balance system (`numeric`), and the command line (`cli`).

The package itself exports nothing; import names from their submodule,
as in `from vortexdiagrams.diagram import Diagram`.  Importing one
submodule, such as `cli`, does not load the others.
"""

__version__ = "0.1.0"
