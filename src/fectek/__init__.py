"""Learned sparse retrieval: contextual term weights over an inverted index.

A single encoder tower produces per-term impact weights for queries and
passages; ranking is an exact sparse dot product served from an 8-bit
quantized inverted index.  Training combines a contrastive text-level loss
with term-level occurrence guidance.
"""
