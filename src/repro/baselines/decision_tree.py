"""Decision-tree baseline policy (DiTomaso et al., MICRO 2016 style).

The supervised-learning comparison point of Section V-B: a regression
tree is trained — during a pre-training phase on synthetic traffic — to
predict each router's timing-error rate from the same Table I features
the RL agent observes; the operation mode is then chosen by thresholding
the predicted error rate against hand-engineered levels (the "human
engineering" of the control policy the paper contrasts RL against).
After pre-training the tree is frozen and "no longer updated during [the]
testing phase".

Training labels are the ground-truth per-transfer timing-error
probabilities of the router's output channels, which the simulator
attaches to every observation — mirroring the offline full-visibility
training of the original work.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple

from repro.baselines.cart import RegressionTree
from repro.core.controller import ControlPolicy
from repro.core.modes import OperationMode
from repro.core.state import RouterObservation
from repro.power.orion import DesignPowerProfile

__all__ = ["DecisionTreePolicy", "DEFAULT_THRESHOLDS"]

logger = logging.getLogger("repro.baselines.decision_tree")

#: Hand-engineered error-rate levels separating the four modes:
#: below minimum -> mode 0, low -> mode 1, medium -> mode 2, high -> mode 3.
DEFAULT_THRESHOLDS: Tuple[float, float, float] = (2e-3, 3e-2, 1.2e-1)


class DecisionTreePolicy(ControlPolicy):
    """Predict the error rate with a CART tree; threshold into a mode."""

    def __init__(
        self,
        thresholds: Tuple[float, float, float] = DEFAULT_THRESHOLDS,
        max_depth: int = 6,
        min_samples_leaf: int = 8,
        training_mode: OperationMode = OperationMode.MODE_1,
    ) -> None:
        if not thresholds[0] < thresholds[1] < thresholds[2]:
            raise ValueError("thresholds must be strictly increasing")
        self.profile = DesignPowerProfile.decision_tree()
        self.thresholds = thresholds
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        #: safe mode used while collecting training data
        self.training_mode = training_mode
        self._samples_x: List[List[float]] = []
        self._samples_y: List[float] = []
        self._tree: RegressionTree = None
        self._frozen = False

    # ------------------------------------------------------------------
    @property
    def trainable(self) -> bool:
        return True

    @property
    def is_fitted(self) -> bool:
        return self._tree is not None

    @property
    def training_samples(self) -> int:
        return len(self._samples_y)

    def reset(self, num_routers: int) -> None:
        # Per-run transient state only; the fitted tree survives resets
        # so one pre-trained tree can be evaluated across benchmarks.
        pass

    # ------------------------------------------------------------------
    def select(self, router_id: int, observation: RouterObservation) -> OperationMode:
        if not self.is_fitted:
            return self.training_mode
        predicted = self._tree.predict(observation.raw_vector())
        low, medium, high = self.thresholds
        if predicted < low:
            return OperationMode.MODE_0
        if predicted < medium:
            return OperationMode.MODE_1
        if predicted < high:
            return OperationMode.MODE_2
        return OperationMode.MODE_3

    def learn(
        self,
        router_id: int,
        observation: RouterObservation,
        action: OperationMode,
        reward: float,
        next_observation: RouterObservation,
    ) -> None:
        if self._frozen:
            return  # Section V-B: no updates during the testing phase
        self._samples_x.append(observation.raw_vector())
        self._samples_y.append(observation.true_error_probability)

    def freeze(self) -> None:
        """Fit the tree on the collected samples and stop learning."""
        if not self._frozen:
            if len(self._samples_y) >= 2 * self.min_samples_leaf:
                self._tree = RegressionTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                ).fit(self._samples_x, self._samples_y)
            self._frozen = True

    # ------------------------------------------------------------------
    # Durable state (checkpoints and pretrained campaign artifacts)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """Durable snapshot: thresholds, the fitted tree, and — so a
        mid-pretrain checkpoint round-trips exactly — the training
        samples collected so far."""
        return {
            "policy": self.name,
            "thresholds": list(self.thresholds),
            "training_mode": int(self.training_mode),
            "frozen": self._frozen,
            "samples_x": [list(row) for row in self._samples_x],
            "samples_y": list(self._samples_y),
            "tree": self._tree.to_state() if self._tree is not None else None,
        }

    def load_state(self, state: Optional[Dict[str, object]]) -> Dict[int, str]:
        """Restore a :meth:`to_state` snapshot, degrading instead of dying.

        The snapshot is validated in full before any field is applied; a
        malformed one (non-numeric thresholds, a torn tree, mismatched
        sample arrays) is rejected with a warning and the policy keeps
        its current model — the unfitted fallback still controls every
        router via ``training_mode``.  One tree serves every router, so
        no router is reported rejected.
        """
        if not state:
            return {}
        try:
            thresholds = tuple(float(t) for t in state.get("thresholds", self.thresholds))
            if len(thresholds) != 3 or not thresholds[0] < thresholds[1] < thresholds[2]:
                raise ValueError("thresholds must be three strictly increasing values")
            training_mode = OperationMode(
                int(state.get("training_mode", int(self.training_mode)))
            )
            samples_x = [
                [float(v) for v in row] for row in state.get("samples_x", [])
            ]
            samples_y = [float(v) for v in state.get("samples_y", [])]
            if len(samples_x) != len(samples_y):
                raise ValueError("sample features and labels disagree in length")
            tree_state = state.get("tree")
            tree = (
                RegressionTree.from_state(tree_state)
                if tree_state is not None
                else None
            )
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning(
                "rejected decision-tree state (%s); keeping the current model", exc
            )
            return {}
        self.thresholds = thresholds
        self.training_mode = training_mode
        self._samples_x = samples_x
        self._samples_y = samples_y
        self._tree = tree
        self._frozen = bool(state.get("frozen", False))
        return {}
