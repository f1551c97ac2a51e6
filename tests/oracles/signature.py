"""Reference signature matching: the linear rule scan.

Every rule whose ``min_sensitivity`` the sensitivity reaches runs its
``match`` on every packet, in rule order -- O(rules x patterns) per
packet.  :class:`repro.ids.signature.SignatureEngine` must report the same
matches in the same order for any rule set and packet stream.  Rules are
stateful (stream tails, threshold windows), so compare against a freshly
built rule set, never the one the engine under test holds.
"""

from typing import List, Sequence

from repro.ids.signature import RuleMatch, SignatureRule
from repro.net.packet import Packet


def linear_inspect(rules: Sequence[SignatureRule], pkt: Packet, now: float,
                   sensitivity: float) -> List[RuleMatch]:
    """The matches of every enabled rule on ``pkt``, in rule order."""
    hits: List[RuleMatch] = []
    for rule in rules:
        if sensitivity < rule.min_sensitivity:
            continue
        m = rule.match(pkt, now, sensitivity)
        if m is not None:
            hits.append(m)
    return hits
