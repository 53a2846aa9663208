"""Shopping-cart workload — Dynamo's motivating application.

Sessions of add/remove/view operations against per-customer carts.
Used by the CRDT convergence experiment (OR-Set carts vs. LWW carts)
and the Dynamo example: the famous anomaly is a removed item
resurfacing (LWW/2P-set) or a concurrent add surviving a checkout
(OR-Set, by design).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The op mix: adds, removes, views; the remainder are checkouts.
ADD_FRACTION, REMOVE_FRACTION, VIEW_FRACTION = 0.5, 0.2, 0.25


@dataclass(frozen=True)
class CartOp:
    session: str      # customer session id
    action: str       # "add" | "remove" | "view" | "checkout"
    cart: str         # cart key
    item: str | None = None


class CartWorkload:
    """Generates interleaved cart sessions.

    Parameters
    ----------
    customers:
        Number of concurrent customers (each owns one cart).
    catalog:
        Number of distinct items.

    The op mix is :data:`ADD_FRACTION` adds, :data:`REMOVE_FRACTION`
    removes and :data:`VIEW_FRACTION` views; the remainder are
    checkouts (which view-then-clear).
    """

    def __init__(
        self,
        customers: int = 10,
        catalog: int = 50,
        seed: int = 0,
    ) -> None:
        if customers < 1 or catalog < 1:
            raise ValueError("need at least one customer and one item")
        self.customers = customers
        self.catalog = catalog
        self.rng = random.Random(seed)
        # Track (approximate) cart contents so removes target items
        # that were actually added.
        self._contents: dict[str, set[str]] = {}

    def _cart_of(self, customer: int) -> str:
        return f"cart-{customer}"

    def next_op(self) -> CartOp:
        customer = self.rng.randrange(self.customers)
        cart = self._cart_of(customer)
        session = f"customer-{customer}"
        contents = self._contents.setdefault(cart, set())
        roll = self.rng.random()
        if roll < ADD_FRACTION or not contents:
            item = f"item-{self.rng.randrange(self.catalog)}"
            contents.add(item)
            return CartOp(session, "add", cart, item)
        roll -= ADD_FRACTION
        if roll < REMOVE_FRACTION:
            item = self.rng.choice(sorted(contents))
            contents.discard(item)
            return CartOp(session, "remove", cart, item)
        roll -= REMOVE_FRACTION
        if roll < VIEW_FRACTION:
            return CartOp(session, "view", cart)
        contents.clear()
        return CartOp(session, "checkout", cart)

    def take(self, count: int) -> list[CartOp]:
        return [self.next_op() for _ in range(count)]
