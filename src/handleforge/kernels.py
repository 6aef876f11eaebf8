"""The search kernels the library calls, under one set of names."""

from __future__ import annotations

from . import _kernels_py as _impl

BACKEND = "pure"

pack_word = _impl.pack_word
unpack_word = _impl.unpack_word
dehornoy_trivial = _impl.dehornoy_trivial
word_reaches_identity = _impl.word_reaches_identity
identity_component = _impl.identity_component
pack_handle_state = _impl.pack_handle_state
unpack_handle_state = _impl.unpack_handle_state
handle_ball = _impl.handle_ball
