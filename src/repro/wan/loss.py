"""Measured packet-loss rates for the wide-area models.

Section 3.1 relies on the loss-pair measurements of Chan et al. [IMC 2010]:
between PlanetLab hosts the probability of losing a single packet was
≈ 0.0048, while the probability of losing *both* packets of a back-to-back
pair was ≈ 0.0007 — far higher than the ≈ 2.3e-5 expected under independence
(losses are correlated) but still 7x lower than the single-packet loss rate.
Those two constants are exposed here and used by the handshake model.
"""

#: Measured probability that a single packet is lost (Chan et al., cited in §3.1).
SINGLE_LOSS_PROBABILITY: float = 0.0048

#: Measured probability that *both* packets of a back-to-back pair are lost.
PAIR_LOSS_PROBABILITY: float = 0.0007
