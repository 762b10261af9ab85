"""Speculative decoding with a recurrent draft head, drafter beam search,
dynamic tree attention over shared prefixes, and greedy verification that
exactly reproduces autoregressive greedy output."""
