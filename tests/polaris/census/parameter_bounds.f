C     Census pin for parameter propagation: the write A(I+N) and the read
C     A(I) are 100 elements apart only once N is known to be 100.
      PROGRAM PARAMS
      PARAMETER (N = 100)
      COMMON /P/ A(200)
      DO 10 I = 1, N
        A(I+N) = A(I) * 0.5
   10 CONTINUE
      WRITE(6,*) A(N+1)
      END
