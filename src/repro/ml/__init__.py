"""Machine learning over relational data, trained from aggregate batches.

Most models in this package consume sufficient statistics computed by the
LMFAO-style engine instead of a materialised data matrix: ridge linear
regression and PCA use the covariance matrix, decision trees use filtered
variance/count batches, Rk-means builds its grid coreset from grouped counts,
and Chow–Liu trees use mutual-information batches.  SVMs (additive-inequality
aggregates over the rows) and factorisation machines (SGD) read the bag
join's columns.  Every model counts a join row as often as its multiplicity.
"""

from repro.ml.statistics import compute_sigma, sigma_from_data_matrix
from repro.ml.linear_regression import RidgeRegression
from repro.ml.decision_tree import DecisionTreeRegressor, DecisionTreeClassifier
from repro.ml.pca import PrincipalComponentAnalysis
from repro.ml.kmeans import KMeans, RelationalKMeans
from repro.ml.factorization_machine import FactorizationMachine
from repro.ml.svm import LinearSVM
from repro.ml.chow_liu import ChowLiuTree, mutual_information_matrix
from repro.ml.model_selection import ModelSelector

__all__ = [
    "compute_sigma",
    "sigma_from_data_matrix",
    "RidgeRegression",
    "DecisionTreeRegressor",
    "DecisionTreeClassifier",
    "PrincipalComponentAnalysis",
    "KMeans",
    "RelationalKMeans",
    "FactorizationMachine",
    "LinearSVM",
    "ChowLiuTree",
    "mutual_information_matrix",
    "ModelSelector",
]
