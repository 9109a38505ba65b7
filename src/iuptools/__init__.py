"""Undetected-photon fringe imaging toolkit.

Simulates nonlinear-interferometer camera stacks, reduces them to visibility,
contrast, phase and DC maps, plans SPDC wavelength pairs for periodically
poled LiNbO3, and benchmarks the analysis path.
"""

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
from .fringes import *
from .optics import *
from .qpm import *
from .stackio import *
from .bench import *

__all__ = [name for name in dir() if not name.startswith("_")]
