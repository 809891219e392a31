/* generated by repro.native — do not edit
 * model: h
 * dt: 0.001  solver: rk4  template: v7
 * bit-exact mirror of repro.model.engine reference passes
 */
#include <math.h>
#include <string.h>

#define DT 0x1.0624dd2f1a9fcp-10
#define NSIG 4
#define NSTATE 0
#define NDW 4
#define NPARAM 9
#define NHELD 0

/* Per-instance context.  Every buffer is owned by the caller and only
 * borrowed here: the TU keeps no mutable file-scope state, so any
 * number of simulators (on any threads) can share one loaded library. */
typedef struct {
  double *S;   /* signals [NSIG] */
  double *X;   /* continuous state [NSTATE] */
  double *DW;  /* discrete work [NDW] */
  double *W;   /* integrator scratch [5 * NSTATE]: X0 K1 K2 K3 K4 */
  const double *P;  /* block parameters [NPARAM] */
  double *H[1];  /* held outputs, written between steps */
} nx_ctx;

#define NX_LOCALS \
  double *S = c->S; double *X = c->X; double *DW = c->DW; \
  const double *P = c->P; \
  (void)S; (void)X; (void)DW; (void)P

static void out_major(const nx_ctx *c, long long step, double t)
{
  NX_LOCALS;
  (void)step; (void)t;
  if (step % 2 == 0) {
    { /* b */
      int v1 = (int)DW[3];
      S[0] = DW[0 + v1];
    }
  }
  { /* d0 */
    S[1] = P[0] + P[1] * sin(P[2] * t + P[3]);
  }
  { /* d1 */
    S[2] = t;
  }
  S[3] = P[4];
}

static void out_minor(const nx_ctx *c, double t, int full)
{
  NX_LOCALS;
  (void)t; (void)full;
  if (full) {
    { /* d0 */
      S[1] = P[5] + P[6] * sin(P[7] * t + P[8]);
    }
    { /* d1 */
      S[2] = t;
    }
  }
}

static void upd(const nx_ctx *c, long long step, double t)
{
  NX_LOCALS;
  (void)step; (void)t;
  if (step % 2 == 0) {
    { /* b */
      int v2 = (int)DW[3];
      DW[0 + v2] = S[1];
      v2 = v2 + 1;
      if (v2 >= 3) v2 = 0;
      DW[3] = (double)v2;
    }
  }
}

static void integrate(const nx_ctx *c, double t, int full)
{
  (void)c; (void)t; (void)full;
}

void nx_run(const nx_ctx *c, long long start, long long n, double *scope_out, double *trace_out)
{
  const double *S = c->S;
  long long i;
  for (i = 0; i < n; i++) {
    long long step = start + i;
    double t = (double)step * DT;
    out_major(c, step, t);
    scope_out[i * 1 + 0] = S[0];
    if (trace_out) memcpy(trace_out + i * NSIG, S, sizeof(double) * NSIG);
    upd(c, step, t);
    integrate(c, t, i == n - 1);
  }
}
/* P[0] = 0x0.0p+0  d0 */
/* P[1] = 0x1.0000000000000p+1  d0 */
/* P[2] = 0x1.3a28c59d5433bp+7  d0 */
/* P[3] = 0x0.0p+0  d0 */
/* P[4] = 0x1.0000000000000p-1  d2 */
/* P[5] = 0x0.0p+0  d0 */
/* P[6] = 0x1.0000000000000p+1  d0 */
/* P[7] = 0x1.3a28c59d5433bp+7  d0 */
/* P[8] = 0x0.0p+0  d0 */
