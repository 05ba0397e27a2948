C     Census pin for the reverse matcher's statement reordering: the
C     annotation-inlined block below has its two independent halves in
C     the opposite order of the template for PAIR (as another tool or a
C     hand edit may leave it), and still reverses to CALL PAIR(I).
      PROGRAM SWAP
        COMMON /S/A(100),B(100)
        DOUBLE PRECISION GU1$A1(1)
        DOUBLE PRECISION GU2$A1(1)
        DO 10 I = 1, 100
C@INLINE BEGIN PAIR 1 I
          GU2$A1(1) = I
          B(I) = GU2$A1(1)
          GU1$A1(1) = I
          A(I) = GU1$A1(1)
C@INLINE END 1
   10     CONTINUE
        WRITE(6,*) A(1),B(1)
      END
      SUBROUTINE PAIR(I)
        COMMON /S/A(100),B(100)
        A(I) = 1.0
        B(I) = 2.0
      END
