C     Census pin for the conventional inliner's refusals: each call sits
C     in a loop and its callee breaks exactly one of the rules, so a
C     refusal that is knocked out lets that callee be spliced in.
C     (CALL VALUE reaches a FUNCTION, which only a nonstandard program
C     does; the refusal keeps the inliner off it.)
      PROGRAM REFUSE
      COMMON /Q/ A(100), B(100)
      DO 10 I = 1, 100
        CALL OUTER(I)
   10 CONTINUE
      DO 20 I = 1, 100
        CALL EARLY(I)
   20 CONTINUE
      DO 30 I = 1, 100
        CALL KEEP(I)
   30 CONTINUE
      DO 40 I = 1, 100
        CALL JUMP(I)
   40 CONTINUE
      DO 50 I = 1, 100
        CALL TWOENT(I)
   50 CONTINUE
      DO 60 I = 1, 100
        CALL ALIAS(I)
   60 CONTINUE
      DO 70 I = 1, 100
        CALL ALTRET(I, *70)
   70 CONTINUE
      DO 80 I = 1, 100
        CALL VALUE(I)
   80 CONTINUE
      WRITE(6,*) A(1), B(1)
      END
      SUBROUTINE OUTER(I)
      CALL INNER(I)
      END
      SUBROUTINE INNER(I)
      COMMON /Q/ A(100), B(100)
      A(I) = B(I) + 1.0
      END
      SUBROUTINE EARLY(I)
      COMMON /Q/ A(100), B(100)
      IF (B(I) .LT. 0.0) RETURN
      A(I) = B(I)
      END
      SUBROUTINE KEEP(I)
      COMMON /Q/ A(100), B(100)
      SAVE T
      T = B(I)
      A(I) = T
      END
      SUBROUTINE JUMP(I)
      COMMON /Q/ A(100), B(100)
      IF (B(I) .LT. 0.0) GO TO 5
      A(I) = B(I)
    5 CONTINUE
      END
      SUBROUTINE TWOENT(I)
      COMMON /Q/ A(100), B(100)
      A(I) = B(I)
      ENTRY SECOND(I)
      B(I) = A(I)
      END
      SUBROUTINE ALIAS(I)
      COMMON /Q/ A(100), B(100)
      DIMENSION W(2)
      EQUIVALENCE (W(1), T)
      T = B(I)
      A(I) = W(1)
      END
      SUBROUTINE ALTRET(I, *)
      COMMON /Q/ A(100), B(100)
      A(I) = B(I)
      RETURN 1
      END
      REAL FUNCTION VALUE(I)
      COMMON /Q/ A(100), B(100)
      A(I) = B(I)
      VALUE = A(I)
      END
