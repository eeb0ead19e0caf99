"""Token-based weighted round-robin between the read and write SQs.

NVMe's WRR arbitration as the paper uses it (§III-A): each SQ gets a
number of tokens equal to its weight; fetching a command consumes one
token of that command's I/O type; when the type that should go next has
no tokens left, all tokens are reset to the weights.  If only one queue
has waiting commands, it is served without touching the tokens (the
"skip-if-empty" rule that makes WRR degenerate to plain round-robin
under light load — the effect behind Fig. 5's flat bottom-left panels
and the in-cast analysis of Table IV).
"""

from __future__ import annotations

from repro.workloads.request import OpType


class TokenWRR:
    """Two-class WRR token state.

    Weights are positive integers; ``weight_ratio`` is write weight over
    read weight, the paper's control variable ``w`` (reads fixed at 1).
    """

    __slots__ = (
        "read_weight",
        "write_weight",
        "read_tokens",
        "write_tokens",
    )

    def __init__(self, read_weight: int = 1, write_weight: int = 1) -> None:
        self._validate(read_weight, write_weight)
        self.read_weight = read_weight
        self.write_weight = write_weight
        self.read_tokens = read_weight
        self.write_tokens = write_weight

    @staticmethod
    def _validate(read_weight: int, write_weight: int) -> None:
        if read_weight < 1 or write_weight < 1:
            raise ValueError(
                f"weights must be >= 1, got read={read_weight} write={write_weight}"
            )

    @property
    def weight_ratio(self) -> float:
        """Write weight over read weight (the paper's ``w``)."""
        return self.write_weight / self.read_weight

    def set_weights(self, read_weight: int, write_weight: int) -> None:
        """Update weights and restart the token round."""
        self._validate(read_weight, write_weight)
        self.read_weight = read_weight
        self.write_weight = write_weight
        self.reset_tokens()

    def reset_tokens(self) -> None:
        self.read_tokens = self.read_weight
        self.write_tokens = self.write_weight

    def choose(self, read_available: bool, write_available: bool) -> OpType | None:
        """Pick the I/O type to fetch next.

        Does not consume a token — call :meth:`consume` with the type of
        the command actually fetched (which can differ when the
        consistency check placed it in the other queue).

        The §III-A round reset lives *here*: "when the type that should
        go next has no tokens left, all tokens are reset" — so the reset
        fires exactly when both classes are dry at choice time, and the
        returned class always holds at least one token.
        """
        if not read_available and not write_available:
            return None
        if read_available and not write_available:
            return OpType.READ
        if write_available and not read_available:
            return OpType.WRITE
        # Both available: serve the class with tokens; writes first within
        # a round so that a ratio w yields w writes per read.
        if self.write_tokens <= 0 and self.read_tokens <= 0:
            self.reset_tokens()
        if self.write_tokens >= self.read_tokens:
            # write >= read and not both dry implies write_tokens >= 1.
            return OpType.WRITE
        return OpType.READ

    def consume(self, op: OpType) -> None:
        """Take one token of ``op``'s class.

        A dry class is never charged below zero and never resets the
        round here — the reset is :meth:`choose`'s job, so a cross-typed
        fetch (a command the consistency check parked in the other
        queue) cannot wipe the other class's remaining budget mid-round.
        """
        if op is OpType.READ:
            if self.read_tokens > 0:
                self.read_tokens -= 1
        else:
            if self.write_tokens > 0:
                self.write_tokens -= 1
        assert self.read_tokens >= 0 and self.write_tokens >= 0, (
            f"WRR tokens went negative: read={self.read_tokens} "
            f"write={self.write_tokens}"
        )
