C     Census pin for the product and MIN reductions: P and S are read
C     before they are written, so each loop is parallel only as a
C     REDUCTION(*:P) / REDUCTION(MIN:S) loop.
      PROGRAM REDUCE
      COMMON /R/ X(100)
      P = 1.0
      DO 10 I = 1, 100
        P = P * X(I)
   10 CONTINUE
      S = X(1)
      DO 20 I = 1, 100
        S = MIN(S, X(I))
   20 CONTINUE
      WRITE(6,*) P, S
      END
