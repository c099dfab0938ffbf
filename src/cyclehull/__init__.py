"""Injective hulls of two families of finite integer metric spaces.

The package builds, entirely in exact integer arithmetic, the tight span
(injective hull) of the rectangle space X_N and of the discrete cycle C_N
realized inside the Young lattice, together with the band geometry of a
discrete Moebius strip, a folding retraction between the two hulls, and
closed forms for the face and band counts.  An independent
oracle recomputes small tight spans straight from the definition so the
structural results can be cross-checked.

Work that a count shows too large is refused with TooLarge, the one
error of every budget; each budget is a constant beside the count it
bounds.
"""

__version__ = "0.1.0"

# characters per block of command text: cli._write_blocks writes blocks of
# about this size (unbuffered, each is a system call), and the JSON faces
# come in pieces of at most half of it or one top's faces
_BLOCK = 1 << 16


class TooLarge(ValueError):
    """A count of the work asked for passes its budget."""

    def __init__(self, what: str, count: int, limit: int, unit: str):
        super().__init__(
            f"{what} needs {count:,} {unit}, more than its budget of {limit:,}")


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
