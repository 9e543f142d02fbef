"""One-shot generative modeling of hand-drawn stroke images.

Pipeline: fit a recording to Bezier paths, synthesize augmented patch sets,
tokenize patches into discrete pen moves, train a masked Transformer encoder
on the flattened move stream, then sample new style-preserving images as SVG.
"""

__version__ = "0.1.0"

from .geometry import (
    Path,
    Polyline,
    StrokeImage,
    fit_path,
    flatten_path,
)

__all__ = [
    "Path",
    "Polyline",
    "StrokeImage",
    "fit_path",
    "flatten_path",
    "__version__",
]
