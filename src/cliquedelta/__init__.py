"""Exact maintenance of maximal cliques under batched edge updates."""

from .delta import (ChangeSet, apply_delete_batch, apply_insert_batch,
                    enum_new, enum_new_te, enum_subsumed, fully_dynamic,
                    split_candidates)
from .enumeration import Clique, ttt, ttt_ext
from .extremal import (batch_extremal, batch_extremal_change, f_max,
                       moon_moser, moon_moser_correction_pair,
                       single_edge_extremal)
from .graph import (BatchError, DuplicateEdgeError, Edge, EdgeBatch, Graph,
                    GraphError, MissingEdgeError, MissingVertexError,
                    SelfLoopError, normalize_edge)
from .oracle import OracleSizeError, oracle_change, oracle_cliques
from .signatures import (CliqueRegistry, RegistryError, SignatureCollisionError,
                         SignatureError, SnapshotError, SnapshotTruncatedError,
                         canonical_string, murmur64, signature)
from .streamio import (EdgeListParseError, EdgeStream, StreamConfig,
                       StreamFormatError, gen_stream, parse_edge_list,
                       read_stream, write_stream)

__version__ = "0.1.0"
