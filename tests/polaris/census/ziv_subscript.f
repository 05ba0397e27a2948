C     Census pin for the ZIV test: the second subscript is loop-invariant
C     in both references (1 against 2), so only ZIV separates the write
C     A(I,1) from the read A(I+1,2); the first dimension cannot.
      PROGRAM ZIV
      COMMON /Z/ A(101,2)
      DO 10 I = 1, 100
        A(I,1) = A(I+1,2) + 1.0
   10 CONTINUE
      WRITE(6,*) A(1,1)
      END
