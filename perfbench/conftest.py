"""Test set-up for the benchmark's own tests: one BLAS thread, checkout source."""

import sys

from perfbench import env

if "numpy" not in sys.modules:
    env.pin_threads()
env.use_checkout_source()
