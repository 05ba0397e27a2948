      SUBROUTINE T(A,B,N)
      REAL A(N),B(N)
      DO 10 I=2,N
      A(I) = B(I)
     ! + A(I-1)
   10 CONTINUE
      END
