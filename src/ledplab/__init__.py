"""Local edge differential privacy lab.

Simulates local-model protocols on graphs (randomized response with
triangle-count postprocessing), mounts reconstruction attacks against
noninteractive mechanisms, and verifies every identity involved against
exact brute-force oracles.
"""

__version__ = "0.1.0"

from ledplab.graphs import Graph
from ledplab.ledp import PrivacyParams, Transcript
from ledplab.rng import Streams

__all__ = ["Graph", "PrivacyParams", "Transcript", "Streams", "__version__"]
