"""Build the compiled branch-and-bound kernel.

The extension is optional: without a C compiler (or Python headers) the
package installs anyway and falls back to the pure-Python kernel at import.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("dompack._bbkernel", ["src/dompack/_bbkernel.c"], optional=True)
    ]
)
