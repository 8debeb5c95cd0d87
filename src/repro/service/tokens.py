"""Dispatch tokens: a worker may only start work the scheduler handed it.

A token binds one dispatch of one job to the service *epoch* that
issued it.  The epoch increments on every service start, so a token
issued before a crash can never start work after recovery — replaying
a stale dispatch message is rejected with ``stale_epoch`` instead of
silently double-running the job (the Snippet-1 ``dispatch_token``
contract, made crash-safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.service.errors import TokenError


@dataclass(frozen=True)
class DispatchToken:
    """One permission-to-start: job, issuing epoch, per-epoch sequence."""

    job_id: str
    epoch: int
    seq: int

    def to_json(self) -> dict:
        return {"job_id": self.job_id, "epoch": self.epoch, "seq": self.seq}

    @classmethod
    def from_json(cls, payload: Mapping) -> "DispatchToken":
        try:
            return cls(
                job_id=str(payload["job_id"]),
                epoch=int(payload["epoch"]),
                seq=int(payload["seq"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise TokenError(
                f"malformed dispatch token {payload!r}: {error}",
                reason="malformed_token",
            )


class TokenIssuer:
    """Issues epoch-stamped tokens and validates redemptions.

    One issuer lives inside one service incarnation; its ``epoch`` is
    fixed at construction (the recovered epoch + 1).  ``redeem`` is the
    single gate a worker start passes through — it enforces epoch
    freshness and single use, and the caller layers the job-state check
    on top.
    """

    def __init__(self, epoch: int) -> None:
        if epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {epoch}")
        self.epoch = epoch
        self._next_seq = 1
        self._redeemed: set[int] = set()

    def issue(self, job_id: str) -> DispatchToken:
        """Mint a fresh token for one dispatch of ``job_id``."""
        token = DispatchToken(job_id=job_id, epoch=self.epoch, seq=self._next_seq)
        self._next_seq += 1
        return token

    def redeem(self, token: DispatchToken, expected: Optional[Mapping]) -> None:
        """Validate one start attempt; raises :class:`TokenError`.

        ``expected`` is the token payload recorded on the job at
        dispatch time (or None when the job holds no live token).
        """
        if token.epoch != self.epoch:
            raise TokenError(
                f"token for job {token.job_id!r} is from epoch {token.epoch}; "
                f"the service is in epoch {self.epoch} — a pre-crash dispatch "
                "must not start after recovery",
                reason="stale_epoch",
            )
        if token.seq in self._redeemed:
            raise TokenError(
                f"token seq {token.seq} for job {token.job_id!r} was already "
                "redeemed; duplicate dispatch suppressed",
                reason="already_redeemed",
            )
        if expected is None or DispatchToken.from_json(expected) != token:
            raise TokenError(
                f"token {token} does not match the job's recorded dispatch "
                f"{expected!r}",
                reason="token_mismatch",
            )
        self._redeemed.add(token.seq)
