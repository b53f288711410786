"""User-satisfaction model (Fig. 11).

The paper reports the "user satisfaction score (the percentage of users'
positive feedback)" improving 7.2 % across the rollout.  Satisfaction is
modelled as a logistic function of the experience metrics: users tolerate
small degradation, then turn negative quickly once stalls become common —
the same saturating shape Fig. 1's complaint mix implies (stalls dominate
reported issues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SatisfactionModel:
    """Maps daily experience metrics to a satisfaction score in (0, 1).

    ``score = sigmoid(bias - w_v*video_stall - w_a*voice_stall
    - w_f*(1 - framerate/30))`` — weights reflect Fig. 1's complaint mix
    (video stalls 29 %, voice stalls 23 %, blurry 18 %).
    """

    bias: float = 2.2
    video_weight: float = 9.0
    voice_weight: float = 7.0
    framerate_weight: float = 4.0
    nominal_fps: float = 30.0

    def score(self, video_stall: float, voice_stall: float, framerate: float) -> float:
        """Satisfaction in (0, 1) for one day's experience metrics."""
        x = (
            self.bias
            - self.video_weight * video_stall
            - self.voice_weight * voice_stall
            - self.framerate_weight * max(0.0, 1.0 - framerate / self.nominal_fps)
        )
        return 1.0 / (1.0 + math.exp(-x))

