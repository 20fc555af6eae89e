"""Multi-label classifiers: dt, knn, rf, svm, mlp, and hard voting."""

from .base import (
    CLASSIFIER_KINDS,
    DEFAULT_HYPERPARAMETERS,
    ClassifierSpec,
    default_voting_spec,
    fit,
)
from .mlp import Mlp, gradient_check
from .neighbors import KNearestNeighbors
from .search import DEFAULT_MLP_GRID, enumerate_grid, grid_search_mlp
from .svm import LinearSvm
from .tree import DecisionTree, RandomForest
from .voting import VotingEnsemble

# classifier kind -> the learner class that ``fit`` trains for it
CLASSIFIER_CLASSES = {
    "dt": DecisionTree,
    "knn": KNearestNeighbors,
    "rf": RandomForest,
    "svm": LinearSvm,
    "mlp": Mlp,
    "voting": VotingEnsemble,
}

__all__ = [
    "CLASSIFIER_CLASSES",
    "CLASSIFIER_KINDS",
    "DEFAULT_HYPERPARAMETERS",
    "DEFAULT_MLP_GRID",
    "ClassifierSpec",
    "DecisionTree",
    "KNearestNeighbors",
    "LinearSvm",
    "Mlp",
    "RandomForest",
    "VotingEnsemble",
    "default_voting_spec",
    "enumerate_grid",
    "fit",
    "gradient_check",
    "grid_search_mlp",
]
