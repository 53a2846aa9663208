"""Bank workloads for the RedBlue and escrow experiments.

Two shapes:

* :class:`BankWorkload` — deposits and withdrawals against accounts,
  with a configurable *blue fraction* (deposit share); used by E8 to
  sweep the RedBlue speedup curve.
* :class:`DebitWorkload` — debits against one bounded counter with a
  controllable proximity to the bound; used by E9 to chart escrow
  abort rates as headroom tightens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class BankOp:
    site: int
    action: str          # "deposit" | "withdraw"
    account: str
    amount: float


#: Sites a :class:`BankWorkload` spreads its ops over (a
#: :class:`~repro.txn.RedBlueBank`'s three).
_SITES = 3
#: Mean of the exponential op amount.
_MEAN_AMOUNT = 10.0


class BankWorkload:
    """Deposits (blue) vs withdrawals (red) at random sites."""

    def __init__(
        self,
        accounts: int = 5,
        blue_fraction: float = 0.9,
        seed: int = 0,
    ) -> None:
        if not 0 <= blue_fraction <= 1:
            raise ValueError("blue_fraction must be in [0, 1]")
        if accounts < 1:
            raise ValueError("need accounts")
        self.accounts = accounts
        self.blue_fraction = blue_fraction
        self.rng = random.Random(seed)

    def next_op(self) -> BankOp:
        site = self.rng.randrange(_SITES)
        account = f"acct-{self.rng.randrange(self.accounts)}"
        amount = round(self.rng.expovariate(1.0 / _MEAN_AMOUNT), 2)
        if self.rng.random() < self.blue_fraction:
            return BankOp(site, "deposit", account, amount)
        return BankOp(site, "withdraw", account, amount)

    def take(self, count: int) -> list[BankOp]:
        return [self.next_op() for _ in range(count)]


@dataclass(frozen=True)
class DebitOp:
    site: int
    amount: float


class DebitWorkload:
    """A stream of debits sized so total demand ≈ ``demand_fraction``
    of the available headroom — 0.5 leaves slack everywhere, 1.0 sits
    exactly on the invariant, >1 guarantees aborts."""

    def __init__(
        self,
        sites: int,
        total_headroom: float,
        operations: int,
        demand_fraction: float = 0.8,
        skew_site: int | None = None,
        skew_weight: float = 0.0,
        seed: int = 0,
    ) -> None:
        if operations < 1:
            raise ValueError("need at least one operation")
        if not 0 <= skew_weight <= 1:
            raise ValueError("skew_weight must be in [0, 1]")
        self.sites = sites
        self.mean_amount = total_headroom * demand_fraction / operations
        self.operations = operations
        self.skew_site = skew_site
        self.skew_weight = skew_weight
        self.rng = random.Random(seed)

    def next_op(self) -> DebitOp:
        if (
            self.skew_site is not None
            and self.rng.random() < self.skew_weight
        ):
            site = self.skew_site
        else:
            site = self.rng.randrange(self.sites)
        amount = self.rng.uniform(0.5, 1.5) * self.mean_amount
        return DebitOp(site, round(amount, 4))

    def take(self, count: int | None = None) -> list[DebitOp]:
        return [self.next_op() for _ in range(count or self.operations)]
