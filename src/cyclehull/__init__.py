"""Injective hulls of two families of finite integer metric spaces.

The package builds, entirely in exact integer arithmetic, the tight span
(injective hull) of the rectangle space X_N and of the discrete cycle C_N
realized inside the Young lattice, together with the band geometry of a
discrete Moebius strip, a folding retraction between the two hulls, and
closed forms for the face and band counts.  An independent
oracle recomputes small tight spans straight from the definition so the
structural results can be cross-checked.
"""

__version__ = "0.1.0"

__all__ = [
    "partitions",
    "walks",
    "spaces",
    "moebius",
    "hullwalk",
    "hull",
    "export",
    "census",
    "oracle",
    "cli",
]
