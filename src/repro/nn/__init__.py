"""From-scratch neural-network kernels: GCN layers, losses, Adam, metrics."""

from .activations import relu, sigmoid, softmax
from .gradcheck import check_gradients, max_relative_error, numerical_gradient
from .init import xavier_uniform
from .layers import DenseLayer, Dropout, GCNLayer
from .loss import SigmoidCrossEntropy, SoftmaxCrossEntropy, make_loss
from .metrics import accuracy, confusion_counts, f1_macro, f1_micro
from .network import GCN
from .optim import Adam

__all__ = [
    "relu",
    "sigmoid",
    "softmax",
    "xavier_uniform",
    "GCNLayer",
    "DenseLayer",
    "Dropout",
    "SoftmaxCrossEntropy",
    "SigmoidCrossEntropy",
    "make_loss",
    "Adam",
    "GCN",
    "f1_micro",
    "f1_macro",
    "accuracy",
    "confusion_counts",
    "numerical_gradient",
    "check_gradients",
    "max_relative_error",
]
