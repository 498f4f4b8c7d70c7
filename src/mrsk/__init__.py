"""Link-level simulator for ratio-keyed diffusive molecular communication.

Modules map onto the system layers: :mod:`mrsk.channel` (diffusion
physics and FIR moments), :mod:`mrsk.ratio_stats` (ratio-of-Gaussians
laws), :mod:`mrsk.modem` (symbols, emissions and the array
detectors), :mod:`mrsk.analysis` (closed-form BER), :mod:`mrsk.simulate`
(Monte Carlo and particle engines and framing), :mod:`mrsk.baselines`
(OOK, CSK, MoSK, RTSK references) and :mod:`mrsk.cli` (batch experiment
runner; a sweep or compare point is its spec with one field replaced).
"""

from .analysis import BerResult, ftd_ber
from .channel import ChannelParams, arrival_moments, cir, hit_fraction
from .errors import CapacityError
from .modem import MrskConfig, detect_admc, detect_ftd, detect_mlsd
from .ratio_stats import GaussPair, SolidParams
from .simulate import BerEstimate, SimConfig, run_link, run_links

__all__ = [
    "BerEstimate",
    "BerResult",
    "CapacityError",
    "ChannelParams",
    "GaussPair",
    "MrskConfig",
    "SimConfig",
    "SolidParams",
    "arrival_moments",
    "cir",
    "detect_admc",
    "detect_ftd",
    "detect_mlsd",
    "ftd_ber",
    "hit_fraction",
    "run_link",
    "run_links",
]

__version__ = "0.1.0"
