"""Adversary capability models and the weaker-than ordering check.

Five models, all parameterized by the minimum relaying delay:

- relay:        adversarial nodes only relay; a directional cast of m must
                be preceded by some adversarial node's reception of m at
                least delta_relay plus the adversary-channel flight time
                between the two nodes earlier; broadcasts are forbidden;
- relay-bcast:  the mirror image, relaying with broadcasts only;
- relay-local:  relaying without the adversary channel: the casting node
                itself must have received the message at least
                delta_relay earlier;
- dy-t:         Dolev-Yao style for time-stamped beacons: a cast beacon
                is either created by some adversarial identity or is a
                relayed copy under the relay rule; payloads outside the
                beacon space are rejected;
- dy-gt:        the same for time- and location-stamped beacons.

``ADVERSARIES`` is the one place where these capabilities live, one
``AdversarySpec`` per model; the check and the trace generators read it.
relay-local needs no field of its own for the channel: the flight from a
node to itself is 0, so its bound is the general one at distance 0.

Silence is feasible under every model, and all relay bounds are lower
bounds, so feasibility is monotone: shrinking delta_relay never breaks
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    Bcast,
    BeaconT,
    BeaconTL,
    Dcast,
    Event,
    FULL_TURN,
    NodeId,
    Receive,
    Setting,
    SystemParams,
    Ticks,
    Trace,
    Verdict,
    Violation,
    _lattice,
    _root,
    _signed,
    flight_ticks,
)
from .rational import EXACT, Num

RELAY = "relay"
RELAY_BCAST = "relay-bcast"
RELAY_LOCAL = "relay-local"
DY_T = "dy-t"
DY_GT = "dy-gt"


@dataclass(frozen=True)
class AdversarySpec:
    """Everything that tells one adversary model from another.

    sends     the one transmission kind its nodes may make, Bcast or Dcast
    own_only  whether a relay is justified only by the casting node's own
              reception; any adversarial node's reception justifies it
              otherwise
    authors   the beacon type it may author and must stay within, BeaconT
              or BeaconTL; None for a pure relay, which may cast anything
              it received

    No field says whether the adversary channel's flight adds to the
    relay gap.  The gap is at least delta_relay plus the flight between
    the receiving and the casting node, and under own_only those are one
    node, whose flight to itself is 0.
    """

    sends: type
    own_only: bool = False
    authors: Optional[type] = None


ADVERSARIES: dict[str, AdversarySpec] = {
    RELAY: AdversarySpec(Dcast),
    RELAY_BCAST: AdversarySpec(Bcast),
    RELAY_LOCAL: AdversarySpec(Dcast, own_only=True),
    DY_T: AdversarySpec(Dcast, authors=BeaconT),
    DY_GT: AdversarySpec(Dcast, authors=BeaconTL),
}

ADVERSARY_NAMES = tuple(ADVERSARIES)


def adversary_spec(name: str) -> AdversarySpec:
    try:
        return ADVERSARIES[name]
    except KeyError:
        raise ValueError(f"unknown adversary model {name!r}") from None


@dataclass(frozen=True)
class AdversaryModel:
    kind: str
    delta_relay: Fraction

    def __post_init__(self) -> None:
        adversary_spec(self.kind)
        if _signed(self.delta_relay, "delta_relay") < 0:
            raise ValueError("delta_relay must be >= 0")


def _relay_justified(
    e: Event,
    trace: Trace,
    setting: Setting,
    ticks: Ticks,
    least_gap: Callable[[NodeId, Receive], int],
    own_only: bool,
) -> bool:
    """Some qualifying earlier reception of the same message exists.

    A reception r qualifies when it is the casting node's own under
    own_only, any adversarial node's otherwise, and the relay gap
    e.start - r.start is at least the bound: delta_relay plus the
    adversary-channel flight time between the two nodes (0 for one
    node).  In approximate mode the bound is less epsilon when it, or
    r's own flight, is irrational, and only then: r.start is then a
    rational record of an irrational instant.  The gap is read by the
    check's ticks, the cast's start once and each source's start as it
    is tried, and the bound rounded up, as ``least_gap`` reads it.
    """
    start = ticks.of(e.start)
    for r in trace.receptions_of(e.msg):
        source = r.actor == e.actor if own_only else setting.is_adversarial(r.actor)
        if source and start - ticks.of(r.start) >= least_gap(e.actor, r):
            return True
    return False


# by event type: the rule and detail for a transmission of the kind the
# model does not make, and the detail for a relay no reception justifies
_CASTS = {
    Bcast: ("adversarial-bcast", "this model restricts adversarial nodes to directional casts",
            "no sufficiently early adversarial reception of this message"),
    Dcast: ("adversarial-dcast", "this model restricts adversarial nodes to broadcasts",
            "no sufficiently early reception of this message"),
}


def check_adversary_feasible(
    trace: Trace,
    setting: Setting,
    params: SystemParams,
    model: AdversaryModel,
    num: Num = EXACT,
) -> Verdict:
    """Check every adversarial transmission against the model's capabilities.

    The trace is assumed physically consistent.  Payloads outside a
    Dolev-Yao model's beacon space are reported as violations rather
    than raised, so corpus-wide ordering comparisons stay total.

    Instants are read by the trace's ticks over the lcm of the trace's D
    and the denominator of num.epsilon (``Trace.ticks``): each
    adversarial cast's start once, and the start of each reception that
    may justify it as it is tried (``_relay_justified``).  The bound
    holds at most one square root, the adversary-channel distance, and
    ``flight_ticks`` reads it from the setting's root memo as its least
    tick: its ceiling, less E = epsilon·D when it is irrational.  A
    rational bound is less E only where the justifying reception's flight
    is irrational, since that reception's start is then a rational record
    of its instant; that root is looked up only at epsilon > 0.  So E is
    taken at most once, and every gap is exact wherever every distance is
    rational.
    """
    violations: list[Violation] = []
    spec = ADVERSARIES[model.kind]
    ticks = trace.ticks(num.epsilon.as_integer_ratio()[1])
    bound = flight_ticks(setting, params.v_adv, ticks.den, num, model.delta_relay)
    slack, coords = ticks.of(num.epsilon), _lattice(setting)[1]  # E

    def least_gap(sender: NodeId, r: Receive) -> int:
        """The least gap in ticks from r to a cast by sender (``_relay_justified``)."""
        low, high = bound(sender, r.actor)  # low < high: an irrational bound, less E
        if slack and low >= high and r.sender in coords:
            low -= slack if _root(setting, coords, r.sender, r.actor) is None else 0
        return low

    for e in trace:
        cast = _CASTS.get(type(e))
        if cast is None or not setting.is_adversarial(e.actor):
            continue  # a correct node's broadcast is honest, its cast a physics violation
        rule, refused, detail = cast
        if type(e) is not spec.sends:
            violations.append(Violation(rule, (e,), refused))
            continue
        if spec.authors is not None:
            if not isinstance(e.msg, spec.authors):
                detail = "adversarial payload is not a beacon of this model"
                violations.append(Violation("message-outside-model", (e,), detail))
                continue
            if setting.is_adversarial(e.msg.creator):
                continue  # self-authored by the adversary's own identities
            detail = "beacon of a correct creator was never received early enough"
        if not _relay_justified(e, trace, setting, ticks, least_gap, spec.own_only):
            violations.append(Violation("relay-unjustified", (e,), detail))
    return Verdict(tuple(violations))


def rename_bcast_to_dcast(trace: Trace, setting: Setting) -> Trace:
    """Replace each adversarial broadcast by a full-circle directional cast.

    Full-circle sectors cover every node including the apex, so the
    induced receptions, the physical-consistency verdict, and every
    correct node's local view are unchanged.
    """
    out: list[Event] = []
    for e in trace:
        if isinstance(e, Bcast) and setting.is_adversarial(e.actor):
            out.append(Dcast(e.actor, e.start, Fraction(0), FULL_TURN, e.msg))
        else:
            out.append(e)
    return Trace(out)


def rename_dcast_to_bcast(trace: Trace, setting: Setting) -> Trace:
    """Replace each adversarial directional cast by a broadcast.

    The inverse renaming; it widens coverage unless the original sector
    already reached every linked node, so physical consistency must be
    re-checked by the caller if needed.
    """
    out: list[Event] = []
    for e in trace:
        if isinstance(e, Dcast) and setting.is_adversarial(e.actor):
            out.append(Bcast(e.actor, e.start, e.msg))
        else:
            out.append(e)
    return Trace(out)


@dataclass(frozen=True)
class OrderingCounterexample:
    index: int
    verdict: Verdict


@dataclass(frozen=True)
class OrderingReport:
    weaker: str
    stronger: str
    renamed: bool
    total: int
    applicable: int
    counterexamples: tuple[OrderingCounterexample, ...]

    @property
    def inclusion_holds(self) -> bool:
        return not self.counterexamples


def weaker_on_corpus(
    model1: AdversaryModel,
    model2: AdversaryModel,
    corpus: Sequence[tuple[Trace, Setting]],
    params: SystemParams,
    use_renaming: bool = False,
    num: Num = EXACT,
) -> OrderingReport:
    """Test trace-set inclusion between two adversary models on a corpus.

    For every corpus trace feasible under model1, feasibility under
    model2 is required (after rewriting adversarial broadcasts to
    full-circle casts when use_renaming is set).  An empty
    counterexample list means inclusion holds on this corpus.
    """
    counterexamples: list[OrderingCounterexample] = []
    applicable = 0
    for index, (trace, setting) in enumerate(corpus):
        if not check_adversary_feasible(trace, setting, params, model1, num).ok:
            continue
        applicable += 1
        candidate = rename_bcast_to_dcast(trace, setting) if use_renaming else trace
        verdict = check_adversary_feasible(candidate, setting, params, model2, num)
        if not verdict.ok:
            counterexamples.append(OrderingCounterexample(index, verdict))
    return OrderingReport(
        weaker=model1.kind,
        stronger=model2.kind,
        renamed=use_renaming,
        total=len(corpus),
        applicable=applicable,
        counterexamples=tuple(counterexamples),
    )
