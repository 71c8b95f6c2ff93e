"""Run the tests at one BLAS thread unless the environment names a count,
as the command line does (:func:`gatelab._default_one_blas_thread`): a
plain ``pytest`` sees the bits and the speed of a pinned run.  A root
conftest runs before any test module loads numpy."""

import gatelab

gatelab._default_one_blas_thread()
