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

Silence is feasible under every model, and all relay bounds are lower
bounds, so feasibility is monotone: shrinking delta_relay never breaks
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .core import (
    Bcast,
    BeaconT,
    BeaconTL,
    Dcast,
    Event,
    FULL_TURN,
    NodeId,
    Setting,
    SystemParams,
    Trace,
    Verdict,
    Violation,
    flight_ticks,
)
from .rational import EXACT, Num

RELAY = "relay"
RELAY_BCAST = "relay-bcast"
RELAY_LOCAL = "relay-local"
DY_T = "dy-t"
DY_GT = "dy-gt"

ADVERSARY_NAMES = (RELAY, RELAY_BCAST, RELAY_LOCAL, DY_T, DY_GT)


@dataclass(frozen=True)
class AdversaryModel:
    kind: str
    delta_relay: Fraction

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_NAMES:
            raise ValueError(f"unknown adversary model {self.kind!r}")
        if self.delta_relay < 0:
            raise ValueError("delta_relay must be >= 0")


def _relay_justified(
    e: Event,
    trace: Trace,
    setting: Setting,
    starts: Mapping[Event, int],
    least_gap: Callable[[NodeId, NodeId], int],
    same_node_only: bool,
) -> bool:
    """Some qualifying earlier reception of the same message exists.

    A reception r qualifies when the relay gap e.start - r.start is at
    least delta_relay plus the adversary-channel flight time between the
    two nodes (none under relay-local), less epsilon.  The gap is read
    by the check's ticks and the bound rounded up, as ``least_gap`` keeps
    it per node pair for the check.
    """
    for r in trace.receptions_of(e.msg):
        if same_node_only:
            if r.actor != e.actor:
                continue
        elif not setting.is_adversarial(r.actor):
            continue
        if starts[e] - starts[r] >= least_gap(e.actor, r.actor):
            return True
    return False


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
    and the denominator of num.epsilon (``Trace.ticks``).  A relay gap
    qualifies when it is at least the bound less epsilon: in ticks, the
    ceiling of the bound's ticks less E = epsilon·D, which is exact
    because E is an int.  The bound holds at most one square root, the
    adversary-channel distance, read as ``flight_ticks`` reads it.
    """
    violations: list[Violation] = []
    beacon_type = {DY_T: BeaconT, DY_GT: BeaconTL}.get(model.kind)
    # a relayed copy needs an early enough reception: at the casting node
    # itself under relay-local, at any adversarial node otherwise
    same_node_only = model.kind == RELAY_LOCAL
    eps, eps_den = num.epsilon.as_integer_ratio()
    ticks, starts = trace.ticks(eps_den)
    slack = eps * (ticks.den // eps_den)  # E
    # the least relay gap per (casting node, receiving node), in ticks
    gaps: dict[tuple[NodeId, NodeId], int] = {}
    bound = flight_ticks(setting, params.v_adv, ticks.den, num.exact, model.delta_relay)

    def least_gap(sender: NodeId, receiver: NodeId) -> int:
        gap = gaps.get((sender, receiver))
        if gap is None:
            if same_node_only:
                gap = ticks.ceil(model.delta_relay) - slack
            else:  # the ceiling of delta_relay + dist / v_adv
                gap = bound(sender, receiver)[1] - slack
            gaps[(sender, receiver)] = gap
        return gap

    for e in trace:
        if isinstance(e, Bcast):
            if not setting.is_adversarial(e.actor):
                continue
            if model.kind != RELAY_BCAST:
                violations.append(
                    Violation(
                        "adversarial-bcast",
                        (e,),
                        "this model restricts adversarial nodes to directional casts",
                    )
                )
                continue
            detail = "no sufficiently early adversarial reception of this message"
        elif not isinstance(e, Dcast) or not setting.is_adversarial(e.actor):
            continue  # a correct node's cast is a physics violation, not the adversary's
        elif model.kind == RELAY_BCAST:
            violations.append(
                Violation(
                    "adversarial-dcast",
                    (e,),
                    "this model restricts adversarial nodes to broadcasts",
                )
            )
            continue
        elif beacon_type is not None:
            if not isinstance(e.msg, beacon_type):
                violations.append(
                    Violation(
                        "message-outside-model",
                        (e,),
                        "adversarial payload is not a beacon of this model",
                    )
                )
                continue
            if setting.is_adversarial(e.msg.creator):
                continue  # self-authored by the adversary's own identities
            detail = "beacon of a correct creator was never received early enough"
        else:
            detail = "no sufficiently early reception of this message"
        if not _relay_justified(e, trace, setting, starts, least_gap, same_node_only):
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
