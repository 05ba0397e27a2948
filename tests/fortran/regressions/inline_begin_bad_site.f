C     C@INLINE BEGIN with a non-numeric site id: ValueError (strict)
      PROGRAM TAGBEG
      REAL A(10)
C@INLINE BEGIN F x
      X = 1.0
C@INLINE END 1
      END
