"""Spectra of random hopping-sign tridiagonal operators.

The operators are bi-infinite tridiagonal matrices with zero diagonal,
unit superdiagonal, and subdiagonal entries c_n drawn from {+sigma, -sigma}.
This package computes and cross-checks their spectra along several
independent routes: sequence square-root maps (Gamma_plus and friends),
transfer-matrix classification of periodic words, exact integer polynomial
identities for the special sign sequence c-tilde, dense LAPACK eigenvalues,
and Bloch-decomposition unions over twisted periodic matrices.
"""

__version__ = "0.1.0"


def one_line(command):
    """command as one line that encodes to UTF-8: backslash, newline and CR
    escaped, and each byte of a non-UTF-8 file name (os.fsdecode's lone
    surrogate) as \\xNN."""
    return command.translate(
        {ord("\\"): "\\\\", ord("\n"): "\\n", ord("\r"): "\\r"}).encode(
            "utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


from . import seqcore, polyalg, transfer, eigen, spectra  # noqa: E402, F401
